package repro.core

import repro.storage.{ColumnarBlock, RowBatches}

/** The one place where the chart vizketches count rows (§4.3, App. B.1):
  * bin counts over a grid of one axis (histogram, CDF), two (stacked
  * histogram, heat map) or three (trellis). Each axis has two slots before
  * its buckets, for `Missing` (−2) and `Outside` (−1) ids, so a row whose
  * axis a has id idₐ is counted in slot Σₐ (idₐ + 2)·strideₐ without a
  * branch. The last axis has stride 1. The tally's sum is the number of
  * rows visited; each chart derives its summary from the tally.
  */
private[core] object BucketTally {

  /** Slots of one axis: missing, outside, then the buckets. */
  def slots(spec: BucketSpec): Int = spec.count + 2

  /** The tally of the rows of `block` drawn at `rate` from `rng`, over the
    * grid of 1 to 3 `axes`, each a (column, buckets) pair.
    */
  def apply(block: ColumnarBlock, axes: Seq[(String, BucketSpec)], rate: Double, rng: SplitMix): Array[Long] = {
    val n = axes.length
    require(n >= 1 && n <= 3, s"a chart tally has 1 to 3 axes, not $n")
    val size = axes.foldLeft(1L)((s, a) => s * slots(a._2))
    require(size <= Int.MaxValue, s"a chart grid of $size slots does not fit an Int")
    val tally  = new Array[Long](size.toInt)
    val bound  = axes.map { case (col, spec) => spec.bind(block.column(col)) }.toArray
    val ids    = Array.fill(n)(new Array[Int](RowBatches.Capacity))
    val stride = axes.map(a => slots(a._2)).scanRight(1)(_ * _).tail
    val base   = 2 * stride.sum // the + 2 of every axis
    val (s0, s1) = (stride(0), stride(math.min(1, n - 1)))
    val rb     = block.batches(rate, rng)
    while (rb.next()) {
      val m = rb.size
      var a = 0
      while (a < n) { bound(a).fill(rb.rows, m, ids(a)); a += 1 }
      if (n == 1) count(tally, ids(0), m)
      else if (n == 2) count(tally, ids(0), s0, ids(1), base, m)
      else count(tally, ids(0), s0, ids(1), s1, ids(2), base, m)
    }
    tally
  }

  // One small method per axis count, so each loop is compiled on its own.
  private def count(tally: Array[Long], xs: Array[Int], m: Int): Unit = {
    var k = 0
    while (k < m) { tally(xs(k) + 2) += 1; k += 1 }
  }

  private def count(tally: Array[Long], xs: Array[Int], s0: Int, ys: Array[Int], base: Int, m: Int): Unit = {
    var k = 0
    while (k < m) { tally(xs(k) * s0 + ys(k) + base) += 1; k += 1 }
  }

  private def count(tally: Array[Long], xs: Array[Int], s0: Int, ys: Array[Int], s1: Int, zs: Array[Int],
                    base: Int, m: Int): Unit = {
    var k = 0
    while (k < m) { tally(xs(k) * s0 + ys(k) * s1 + zs(k) + base) += 1; k += 1 }
  }

  /** Σ `counts`, or Σ `counts`(from until until), without boxing. */
  def sum(counts: Array[Long]): Long = sum(counts, 0, counts.length)
  def sum(counts: Array[Long], from: Int, until: Int): Long = {
    var s = 0L
    var i = from
    while (i < until) { s += counts(i); i += 1 }
    s
  }

  /** The in-bucket cells x·by + y of the two-axis plane whose slots start at `from`. */
  def cells(tally: Array[Long], from: Int, bx: Int, by: Int): Array[Long] = {
    val out = new Array[Long](bx * by)
    var x   = 0
    while (x < bx) { System.arraycopy(tally, from + (x + 2) * (by + 2) + 2, out, x * by, by); x += 1 }
    out
  }

  /** Element-wise sum of two count arrays: the merge of every chart summary. */
  def add(a: Array[Long], b: Array[Long]): Array[Long] = {
    require(a.length == b.length, s"count arrays of ${a.length} and ${b.length} in merge")
    val c = new Array[Long](a.length)
    var i = 0
    while (i < c.length) { c(i) = a(i) + b(i); i += 1 }
    c
  }
}
