package repro.core

import repro.storage.{ColumnarBlock, RowBatches, StringColumn}

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

  /** The generic scan offers every row to `NextRows`, a batch at a time. */
  def summarize(block: ColumnarBlock, ctx: LeafCtx): NextItemsSummary = {
    val cs = cols.map(block.column).toArray
    // The code path compares strings only, so it takes a start key of one
    // string or missing cell; any other start goes through the row scan.
    val stringStart = start.forall(s => s.cells.length == 1 && !s.cells.head.isInstanceOf[NumCell])
    cs match {
      case Array(c: StringColumn) if stringStart => summarizeCodes(block, c)
      case _ =>
        val next = new NextRows(cs, sortCols, k, start.orNull)
        val rb   = block.batches
        while (rb.next()) next.offerBatch(rb)
        NextItemsSummary(next.rows)
    }
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
    val sign = SortCol.signs(sortCols)(0)
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

  def merge(a: NextItemsSummary, b: NextItemsSummary): NextItemsSummary =
    NextItemsSummary(SortedRuns.union(a.rows, b.rows, k)(
      (x, y) => ord.compare(x._1, y._1), (x, y) => (x._1, x._2 + y._2)))
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
    * per dictionary entry (§5.4). Every hit is counted and offered to a
    * one-key `NextRows`, whose least key is the first match.
    */
  def summarize(block: ColumnarBlock, ctx: LeafCtx): FindTextSummary = {
    val mc = block.column(col)
    val (packed, byCode) = mc match {
      case c: StringColumn => (c.codes, c.dict.map(matches))
      case _               => (null, null)
    }
    val codes = if (packed != null) new Array[Int](RowBatches.Capacity) else null
    val best  = new NextRows(sortCols.map(sc => block.column(sc.name)).toArray, sortCols, 1, start.orNull)
    var n     = 0L
    val rb    = block.batches
    while (rb.next()) {
      val rows = rb.rows
      if (codes != null) packed.ints(rows, rb.size, codes)
      var j = 0
      while (j < rb.size) {
        val i = rows(j)
        val hit =
          if (codes != null) { val code = codes(j); code >= 0 && byCode(code) }
          else matches(mc.asString(i))
        if (hit) { n += 1; best.offer(i) }
        j += 1
      }
    }
    FindTextSummary(Option(best.first), n)
  }

  def merge(a: FindTextSummary, b: FindTextSummary): FindTextSummary = {
    val first = (a.firstMatch, b.firstMatch) match {
      case (Some(x), Some(y)) => Some(if (ord.compare(x, y) <= 0) x else y)
      case (x, y)             => x.orElse(y)
    }
    FindTextSummary(first, a.matches + b.matches)
  }
}
