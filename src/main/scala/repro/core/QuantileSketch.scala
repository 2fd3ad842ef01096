package repro.core

import repro.storage.{Column, ColumnarBlock, RowBatches, StringColumn}

/** Summary: a uniform sample of at most `capacity` rows, held as the
  * bottom-n rows by a per-row random priority (bottom-k sampling,
  * mergeable by union+trim). Stored column-wise so it ships as a handful
  * of primitive arrays rather than a graph of boxed keys: `priorities`
  * ascending, and per sort column one array aligned with it —
  * `Array[Double]` (NaN = missing) for numeric, date and long columns,
  * `Array[String]` (null = missing) for string columns. The root sorts the
  * sampled rows and reads off the requested quantile.
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

  /** Values of `c` at `rows`, in the summary's per-column encoding. */
  private[core] def gather(c: Column, rows: Array[Int]): AnyRef = c match {
    case s: StringColumn => rows.map(s.asString)
    case _               => rows.map(c.asDouble)
  }

  /** Entries `src` of two columns: `i >= 0` picks `a(i)`, `~j` picks `b(j)`. */
  private[core] def pick(a: AnyRef, b: AnyRef, src: Array[Int]): AnyRef = (a, b) match {
    case (xs: Array[Double], ys: Array[Double]) => src.map(s => if (s >= 0) xs(s) else ys(~s))
    case (xs: Array[String], ys: Array[String]) => src.map(s => if (s >= 0) xs(s) else ys(~s))
  }

  /** Comparator on sampled rows of one column, in `KeyCell.ordering`
    * (missing last) times the column's sign.
    */
  private def columnOrder(col: AnyRef, sign: Int): (Int, Int) => Int = col match {
    case xs: Array[Double] => (r1, r2) => {
      val x = xs(r1)
      val y = xs(r2)
      sign * (if (x.isNaN) { if (y.isNaN) 0 else 1 } else if (y.isNaN) -1 else java.lang.Double.compare(x, y))
    }
    case xs: Array[String] => (r1, r2) => sign * KeyCell.compareStrings(xs(r1), xs(r2))
  }

  /** Sampled rows ordered as their keys are by `RowKey.ordering(sortCols)`. */
  def sortedRows(s: QuantileSummary, sortCols: Seq[SortCol]): Array[Int] = {
    val orders = s.columns.zipWithIndex.map { case (c, j) =>
      columnOrder(c, if (j < sortCols.length && !sortCols(j).ascending) -1 else 1)
    }
    val idx = Array.tabulate[Integer](s.size)(Int.box)
    java.util.Arrays.sort(idx, (r1: Integer, r2: Integer) => {
      var cmp = 0
      var j   = 0
      while (cmp == 0 && j < orders.length) { cmp = orders(j)(r1, r2); j += 1 }
      cmp
    })
    idx.map(_.intValue)
  }
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
      Array.tabulate(a.columns.length)(c => QuantileSummary.pick(a.columns(c), b.columns(c), src)), cap)
  }
}

/** Bounded max-heap on priority over (priority, row) pairs held in two
  * primitive arrays: keeps the `cap` smallest priorities offered.
  */
private final class BottomN(cap: Int) {
  val pri  = new Array[Long](cap)
  val rows = new Array[Int](cap)
  var size = 0

  def offer(p: Long, r: Int): Unit =
    if (size < cap) {
      var k = size
      size += 1
      while (k > 0 && pri((k - 1) >>> 1) < p) {
        val parent = (k - 1) >>> 1
        pri(k) = pri(parent); rows(k) = rows(parent); k = parent
      }
      pri(k) = p; rows(k) = r
    } else if (cap > 0 && p < pri(0)) siftDown(p, r, size)

  /** Offers each row r of the cursor with priority `SplitMix.mix(base, r)`. */
  def offerAll(rb: RowBatches, base: Long): Unit =
    while (rb.next()) {
      var j = 0
      while (j < rb.size) { val r = rb.rows(j); offer(SplitMix.mix(base, r.toLong), r); j += 1 }
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
    val sorted = QuantileSummary.sortedRows(s, sortCols)
    val idx    = math.min(sorted.length - 1, math.max(0, (q * sorted.length).toInt))
    Some(s.key(sorted(idx)))
  }
}
