package repro.core

import repro.storage.{Column, ColumnarBlock, RowBatches, StringColumn}
import scala.jdk.CollectionConverters._

/** Summary: the K smallest distinct visible tuples strictly after `start`
  * in the sort order, each with its exact repetition count. Rendered
  * directly as the next page of the tabular view (§4.3 "Next items").
  */
final case class NextItemsSummary(rows: Vector[(RowKey, Long)]) extends Serializable

/** Next-items vizketch (§4.3): `summarize` keeps a bounded ordered map of
  * the K next tuples, `merge` combines two maps and keeps the K smallest.
  *
  * Exactness argument for counts under truncation: a key is evicted only
  * while K strictly-smaller keys are present; the map's maximum is
  * monotonically non-increasing thereafter, so an evicted key can never
  * re-enter, and every occurrence of a kept key is below the maximum and
  * is therefore counted.
  */
final case class NextItemsSketch(
    sortCols: Seq[SortCol],
    k: Int,
    start: Option[RowKey] = None
) extends Sketch[NextItemsSummary] {
  require(k > 0, "k must be positive")
  def name            = "nextitems"
  override def params = s"${sortCols.mkString(",")},k=$k,start=${start.map(_.render).getOrElse("⊥")}"

  private val ord                = RowKey.ordering(sortCols)
  private def cols: Seq[String]  = sortCols.map(_.name)

  def zero = NextItemsSummary(Vector.empty)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): NextItemsSummary = {
    val cs = cols.map(block.column).toArray
    // The code path compares strings only, so it takes a start key of one
    // string or missing cell; any other start goes through the row scan.
    val stringStart = start.forall(s => s.cells.length == 1 && !s.cells.head.isInstanceOf[NumCell])
    cs match {
      case Array(c: StringColumn) if stringStart => summarizeCodes(block, c)
      case _                                     => summarizeRows(block, cs)
    }
  }

  /** Generic scan, a batch at a time. A row whose first-column key lies
    * strictly outside [lo, hi] is dropped at once: lo is the start key's
    * first cell, hi the current K-th key's once K keys are held. Every
    * other row takes one allocation-free comparison with the start and the
    * K-th key, and a RowKey only if it enters the current top K.
    */
  private def summarizeRows(block: ColumnarBlock, cs: Array[Column]): NextItemsSummary = {
    val heap   = new java.util.TreeMap[RowKey, Long](ord)
    val signs  = sortCols.map(sc => if (sc.ascending) 1 else -1).toArray
    val startK = start.orNull
    val lead   = LeadKeys(cs, sortCols)
    val keys   = lead.keys
    val lo     = lead.lo(startK)
    var hi     = Double.PositiveInfinity
    val rb     = block.batches
    while (rb.next()) {
      lead.load(rb)
      val rows = rb.rows
      var j    = 0
      while (j < rb.size) {
        val y = keys(j)
        if (lo <= y && y <= hi) {
          val i = rows(j)
          if ((startK == null || RowKey.compareRowTo(cs, i, startK, signs) > 0) &&
              (heap.size < k || RowKey.compareRowTo(cs, i, heap.lastKey, signs) <= 0)) {
            heap.merge(RowKey.of(block, cols, i), 1L, (a, b) => a + b)
            if (heap.size > k) heap.pollLastEntry()
            if (heap.size == k) hi = lead.hi(heap.lastKey)
          }
        }
        j += 1
      }
    }
    NextItemsSummary(heap.entrySet.asScala.iterator.map(e => (e.getKey, e.getValue.longValue)).toVector)
  }

  /** Sort by one dictionary-encoded string column (§5.4): count rows per
    * code (`ValueCounts`), then build keys only for the ≤K smallest codes
    * after `start`. The missing value is slot `dict.length` and, like
    * `KeyCell.ordering`, sorts after every string before the column's sign
    * is applied.
    */
  private def summarizeCodes(block: ColumnarBlock, c: StringColumn): NextItemsSummary = {
    val missing = c.dict.length
    val counts  = ValueCounts(c, block.batches).perCode
    def value(slot: Int): String = if (slot == missing) null else c.dict(slot)
    val sign = if (sortCols.head.ascending) 1 else -1
    def cmp(x: String, y: String): Int = sign * KeyCell.compareStrings(x, y)
    // The start key's value; Some(null) when it is the missing value.
    val from = start.map(_.cells.head match { case StrCell(v) => v; case _ => null })
    // Bounded max-heap of the K smallest surviving slots.
    val heap = new java.util.PriorityQueue[Integer](k + 1, (a: Integer, b: Integer) => cmp(value(b), value(a)))
    var slot = 0
    while (slot <= missing) {
      if (counts(slot) > 0 && from.forall(f => cmp(value(slot), f) > 0) &&
          (heap.size < k || cmp(value(slot), value(heap.peek())) < 0)) {
        heap.add(slot)
        if (heap.size > k) heap.poll()
      }
      slot += 1
    }
    val slots = Array.fill(heap.size)(heap.poll().intValue).reverse
    NextItemsSummary(slots.iterator.map { s =>
      val v = value(s)
      (RowKey(Vector(if (v == null) NullCell else StrCell(v))), counts(s))
    }.toVector)
  }

  def merge(a: NextItemsSummary, b: NextItemsSummary): NextItemsSummary = {
    // Linear merge of two sorted runs, combining counts on equal keys.
    val out = Vector.newBuilder[(RowKey, Long)]
    var i = 0
    var j = 0
    var taken = 0
    while (taken < k && (i < a.rows.length || j < b.rows.length)) {
      val takeA =
        j >= b.rows.length ||
        (i < a.rows.length && ord.compare(a.rows(i)._1, b.rows(j)._1) <= 0)
      if (takeA && j < b.rows.length && i < a.rows.length &&
          ord.compare(a.rows(i)._1, b.rows(j)._1) == 0) {
        out += ((a.rows(i)._1, a.rows(i)._2 + b.rows(j)._2)); i += 1; j += 1
      } else if (takeA) { out += a.rows(i); i += 1 }
      else { out += b.rows(j); j += 1 }
      taken += 1
    }
    NextItemsSummary(out.result())
  }
}

/** Find-text vizketch (App. B.2): the first row matching a search
  * criterion strictly after `start` in the sort order, plus the total
  * number of matches (so the UI can show "n matches").
  */
final case class FindTextSummary(firstMatch: Option[RowKey], matches: Long) extends Serializable

sealed trait TextMatchMode extends Serializable
case object ExactMatch extends TextMatchMode
case object SubstringMatch extends TextMatchMode
case object RegexMatch extends TextMatchMode

final case class FindTextSketch(
    col: String,
    pattern: String,
    mode: TextMatchMode,
    caseSensitive: Boolean,
    sortCols: Seq[SortCol],
    start: Option[RowKey] = None
) extends Sketch[FindTextSummary] {
  def name            = "findtext"
  override def params = s"$col,$pattern,$mode,cs=$caseSensitive,start=${start.map(_.render).getOrElse("⊥")}"

  private val ord = RowKey.ordering(sortCols)
  @transient private lazy val regex =
    if (mode == RegexMatch)
      java.util.regex.Pattern.compile(pattern,
        if (caseSensitive) 0 else java.util.regex.Pattern.CASE_INSENSITIVE)
    else null

  private def matches(s: String): Boolean = {
    if (s == null) return false
    mode match {
      case ExactMatch     => if (caseSensitive) s == pattern else s.equalsIgnoreCase(pattern)
      case SubstringMatch =>
        if (caseSensitive) s.contains(pattern)
        else s.toLowerCase.contains(pattern.toLowerCase)
      case RegexMatch     => regex.matcher(s).find()
    }
  }

  def zero = FindTextSummary(None, 0L)

  /** One pass over the block's batches. A string column is matched once
    * per dictionary entry (§5.4). Every hit is counted; only a hit whose
    * first-column key lies in [lo, hi] (the start key's and the best
    * match's first cells, see `LeadKeys`) is compared with the start and
    * the best match.
    */
  def summarize(block: ColumnarBlock, ctx: LeafCtx): FindTextSummary = {
    val mc = block.column(col)
    val (packed, byCode) = mc match {
      case c: StringColumn => (c.codes, c.dict.map(matches))
      case _               => (null, null)
    }
    val codes  = if (packed != null) new Array[Int](RowBatches.Capacity) else null
    val names  = sortCols.map(_.name)
    val cs     = names.map(block.column).toArray
    val signs  = sortCols.map(sc => if (sc.ascending) 1 else -1).toArray
    val startK = start.orNull
    val lead   = LeadKeys(cs, sortCols)
    val lo     = lead.lo(startK)
    var hi     = Double.PositiveInfinity
    var best: RowKey = null
    var n = 0L
    val rb = block.batches
    while (rb.next()) {
      val rows = rb.rows
      if (codes != null) packed.ints(rows, rb.size, codes)
      var j = 0
      while (j < rb.size) {
        val i = rows(j)
        val hit =
          if (codes != null) { val code = codes(j); code >= 0 && byCode(code) }
          else matches(mc.asString(i))
        if (hit) {
          n += 1
          val y = lead.key(i)
          if (lo <= y && y <= hi &&
              (startK == null || RowKey.compareRowTo(cs, i, startK, signs) > 0) &&
              (best == null || RowKey.compareRowTo(cs, i, best, signs) < 0)) {
            best = RowKey.of(block, names, i)
            hi = lead.hi(best)
          }
        }
        j += 1
      }
    }
    FindTextSummary(Option(best), n)
  }

  def merge(a: FindTextSummary, b: FindTextSummary): FindTextSummary = {
    val first = (a.firstMatch, b.firstMatch) match {
      case (Some(x), Some(y)) => Some(if (ord.compare(x, y) <= 0) x else y)
      case (x, y)             => x.orElse(y)
    }
    FindTextSummary(first, a.matches + b.matches)
  }
}
