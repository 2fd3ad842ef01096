package repro.core

import repro.storage.{Column, ColumnarBlock, RowBatches, StringColumn}

/** Summary: a uniform sample of at most `capacity` rows, held as the
  * bottom-n rows by a per-row random priority (bottom-k sampling,
  * mergeable by union+trim). Stored column-wise so it ships as a handful
  * of primitive arrays rather than a graph of boxed keys: `priorities`
  * ascending, and per sort column one array aligned with it —
  * `Array[Double]` (NaN = missing) for numeric, date and long columns,
  * `Array[String]` (null = missing) for string columns. The root selects
  * the sampled row at the requested quantile's rank.
  */
final class QuantileSummary(
    val priorities: Array[Long],
    val columns: Array[AnyRef],
    val capacity: Int
) extends Serializable {

  def size: Int = priorities.length

  /** Sort key of sampled row `r`. */
  def key(r: Int): RowKey = RowKey(columns.iterator.map(QuantileSummary.cell(_, r)).toVector)

  /** (priority, key) pairs in priority order, materialized on demand. */
  def sample: Vector[(Long, RowKey)] = Vector.tabulate(size)(r => (priorities(r), key(r)))

  override def equals(o: Any): Boolean = o match {
    case s: QuantileSummary =>
      capacity == s.capacity && java.util.Arrays.equals(priorities, s.priorities) &&
        java.util.Arrays.deepEquals(columns, s.columns)
    case _ => false
  }
  override def hashCode: Int = java.util.Arrays.hashCode(priorities)
}

object QuantileSummary {
  def empty(capacity: Int): QuantileSummary =
    new QuantileSummary(Array.emptyLongArray, Array.empty[AnyRef], capacity)

  private def cell(col: AnyRef, r: Int): KeyCell = col match {
    case xs: Array[Double] => if (xs(r).isNaN) NullCell else NumCell(xs(r))
    case xs: Array[String] => if (xs(r) == null) NullCell else StrCell(xs(r))
  }

  /** Values of `c` at `rows`, in the summary's per-column encoding: one
    * batch gather for a numeric column.
    */
  private[core] def gather(c: Column, rows: Array[Int]): AnyRef = c match {
    case s: StringColumn => rows.map(s.asString)
    case _ =>
      val out = new Array[Double](rows.length)
      c.doubles(rows, rows.length, out)
      out
  }

  /** Entries `src` of two columns: `i >= 0` takes `a(i)`, `~j` takes `b(j)`. */
  private[core] def interleave(a: AnyRef, b: AnyRef, src: Array[Int]): AnyRef = (a, b) match {
    case (xs: Array[Double], ys: Array[Double]) =>
      val out = new Array[Double](src.length)
      var k   = 0
      while (k < src.length) { val s = src(k); out(k) = if (s >= 0) xs(s) else ys(~s); k += 1 }
      out
    case (xs: Array[String], ys: Array[String]) =>
      val out = new Array[String](src.length)
      var k   = 0
      while (k < src.length) { val s = src(k); out(k) = if (s >= 0) xs(s) else ys(~s); k += 1 }
      out
  }

  /** The sampled row at rank `k` (0-based) of `RowKey.ordering(sortCols)`:
    * Hoare's FIND with a median-of-three pivot and a three-way partition
    * over the row ids, so rows equal to the pivot are settled in one pass.
    * The rows are in priority order, a hash order independent of their
    * keys, so the expected work is linear. Rows that compare equal have
    * identical keys, so the key at rank `k` is that of a full sort.
    */
  private[core] def select(s: QuantileSummary, sortCols: Seq[SortCol], k: Int): Int = {
    require(k >= 0 && k < s.size, s"rank $k of ${s.size} rows")
    val order = new SampleOrder(s.columns, sortCols)
    val ids   = Array.range(0, s.size)
    def swap(x: Int, y: Int): Unit = { val t = ids(x); ids(x) = ids(y); ids(y) = t }
    var lo    = 0
    var hi    = s.size // rank k lies in ids[lo, hi)
    var found = -1
    while (found < 0) {
      val p  = order.median(ids(lo), ids((lo + hi) >>> 1), ids(hi - 1))
      var lt = lo // ids[lo, lt) < p, ids[lt, i) = p, ids[gt, hi) > p
      var i  = lo
      var gt = hi
      while (i < gt) {
        val c = order.compare(ids(i), p)
        if (c < 0) { swap(lt, i); lt += 1; i += 1 }
        else if (c > 0) { gt -= 1; swap(i, gt) }
        else i += 1
      }
      if (k < lt) hi = lt else if (k >= gt) lo = gt else found = p
    }
    found
  }
}

/** Sampled rows of `columns` in `KeyCell.ordering` (missing last) per
  * column times the column's sign, lexicographically: the order
  * `RowKey.ordering(sortCols)` gives their keys.
  */
private final class SampleOrder(columns: Array[AnyRef], sortCols: Seq[SortCol]) {
  private[this] val signs = SortCol.signs(sortCols)

  def compare(r1: Int, r2: Int): Int = {
    var j = 0
    while (j < columns.length) {
      val c = columns(j) match {
        case xs: Array[Double] =>
          val x = xs(r1)
          val y = xs(r2)
          if (x.isNaN) { if (y.isNaN) 0 else 1 } else if (y.isNaN) -1 else java.lang.Double.compare(x, y)
        case xs: Array[String] => KeyCell.compareStrings(xs(r1), xs(r2))
      }
      if (c != 0) return c * signs(j)
      j += 1
    }
    0
  }

  /** The median of three rows. */
  def median(a: Int, b: Int, c: Int): Int =
    if (compare(a, b) <= 0) { if (compare(b, c) <= 0) b else if (compare(a, c) <= 0) c else a }
    else { if (compare(a, c) <= 0) a else if (compare(b, c) <= 0) c else b }
}

/** Quantile-for-scroll-bar vizketch (§4.3 / Theorem 2): with O(V²·log(1/δ))
  * sampled rows, the returned row's rank is within ε = 1/(2V) of the
  * scroll position w.h.p. A leaf visits only a Bernoulli(`rate`) sample of
  * its rows and keeps the bottom `sampleSize` of those by priority, so its
  * work and summary are O(sample), not O(rows). Both the Bernoulli skips
  * and the priorities are deterministic in (seed, blockId, rowIndex), so
  * replay reproduces the same answer (§5.8).
  */
final case class QuantileSketch(
    sortCols: Seq[SortCol],
    sampleSize: Int,
    rate: Double = 1.0
) extends Sketch[QuantileSummary] {
  require(sampleSize > 0, "sampleSize must be positive")
  require(rate > 0.0 && rate <= 1.0, s"rate must be in (0, 1]: $rate")
  def name            = "quantile"
  override def params = s"${sortCols.mkString(",")},n=$sampleSize,rate=$rate"

  def zero = QuantileSummary.empty(sampleSize)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): QuantileSummary = {
    val base = SplitMix.mix(ctx.seed, ctx.blockId)
    val heap = new BottomN(math.min(sampleSize, block.rowCount))
    heap.offerAll(block.batches(rate, ctx.rng), base)
    heap.sortInPlace()
    val rows = java.util.Arrays.copyOf(heap.rows, heap.size)
    new QuantileSummary(java.util.Arrays.copyOf(heap.pri, heap.size),
      sortCols.map(sc => QuantileSummary.gather(block.column(sc.name), rows)).toArray, sampleSize)
  }

  /** Linear bottom-n merge of two priority-sorted summaries. */
  def merge(a: QuantileSummary, b: QuantileSummary): QuantileSummary = {
    val cap = math.max(a.capacity, b.capacity)
    if (a.size == 0 || b.size == 0) {
      val s = if (a.size == 0) b else a
      return if (s.capacity == cap) s else new QuantileSummary(s.priorities, s.columns, cap)
    }
    val m   = math.min(cap, a.size + b.size)
    val pri = new Array[Long](m)
    val src = new Array[Int](m)
    var i = 0
    var j = 0
    var k = 0
    while (k < m) {
      if (j >= b.size || (i < a.size && a.priorities(i) <= b.priorities(j))) {
        pri(k) = a.priorities(i); src(k) = i; i += 1
      } else {
        pri(k) = b.priorities(j); src(k) = ~j; j += 1
      }
      k += 1
    }
    new QuantileSummary(pri,
      Array.tabulate(a.columns.length)(c => QuantileSummary.interleave(a.columns(c), b.columns(c), src)), cap)
  }
}

/** Bounded max-heap on priority over (priority, row) pairs held in two
  * primitive arrays: keeps the `cap` smallest priorities offered.
  */
private final class BottomN(cap: Int) {
  val pri  = new Array[Long](cap)
  val rows = new Array[Int](cap)
  var size = 0

  /** Adds (p, r) to a heap that is not full. */
  private def push(p: Long, r: Int): Unit = {
    var k = size
    size += 1
    while (k > 0 && pri((k - 1) >>> 1) < p) {
      val parent = (k - 1) >>> 1
      pri(k) = pri(parent); rows(k) = rows(parent); k = parent
    }
    pri(k) = p; rows(k) = r
  }

  /** Offers each row r of the cursor with priority `SplitMix.mix(base, r)`.
    * A batch's priorities are computed in one loop; once the heap is full,
    * a row enters only below its largest priority, so the rest of the batch
    * costs one compare per row.
    */
  def offerAll(rb: RowBatches, base: Long): Unit = {
    val ps = new Array[Long](RowBatches.Capacity)
    while (rb.next()) {
      val n   = rb.size
      val ids = rb.rows
      var j   = 0
      while (j < n) { ps(j) = SplitMix.mix(base, ids(j).toLong); j += 1 }
      j = 0
      while (j < n && size < cap) { push(ps(j), ids(j)); j += 1 }
      if (j < n && cap > 0) {
        var max = pri(0)
        while (j < n) {
          if (ps(j) < max) { siftDown(ps(j), ids(j), size); max = pri(0) }
          j += 1
        }
      }
    }
  }

  /** Place (p, r) at the root and sift it down within the first `n` slots. */
  private def siftDown(p: Long, r: Int, n: Int): Unit = {
    var k     = 0
    var child = 1
    while (child < n) {
      if (child + 1 < n && pri(child + 1) > pri(child)) child += 1
      if (pri(child) <= p) child = n
      else { pri(k) = pri(child); rows(k) = rows(child); k = child; child = 2 * k + 1 }
    }
    pri(k) = p; rows(k) = r
  }

  /** Heapsort: the first `size` slots end in ascending priority. */
  def sortInPlace(): Unit = {
    var end = size - 1
    while (end > 0) {
      val p = pri(end)
      val r = rows(end)
      pri(end) = pri(0); rows(end) = rows(0)
      siftDown(p, r, end)
      end -= 1
    }
  }
}

object QuantileSketch {
  /** Row key at quantile q of the sampled sort order. */
  def quantileOf(s: QuantileSummary, sortCols: Seq[SortCol], q: Double): Option[RowKey] = {
    if (s.size == 0) return None
    val idx = math.min(s.size - 1, math.max(0, (q * s.size).toInt))
    Some(s.key(QuantileSummary.select(s, sortCols, idx)))
  }
}
