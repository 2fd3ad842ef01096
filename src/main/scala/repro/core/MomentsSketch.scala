package repro.core

import repro.storage.{ColumnarBlock, RowBatches}

/** Column summary (App. B.3 "Moments"): row count, missing count, min,
  * max, and raw power sums up to order K. Used as the *preparation phase*
  * of every chart (the first execution tree computes the data range —
  * §5.3) and cached aggressively since it is deterministic (§5.4).
  */
final case class MomentsSummary(
    count: Long,
    missing: Long,
    min: Double,
    max: Double,
    powerSums: Array[Double] // powerSums(j) = Σ x^(j+1)
) extends Serializable {
  def present: Long  = count - missing
  def sum: Double    = if (powerSums.length > 0) powerSums(0) else 0.0
  def mean: Double   = if (present > 0) sum / present else Double.NaN
  def variance: Double =
    if (present > 1 && powerSums.length > 1) {
      val m = mean
      math.max(0.0, powerSums(1) / present - m * m)
    } else Double.NaN
  def stddev: Double = math.sqrt(variance)
  def isEmpty: Boolean = present == 0
}

final case class MomentsSketch(col: String, order: Int = 2) extends Sketch[MomentsSummary] {
  require(order >= 1, "need at least the first moment")
  def name            = "moments"
  override def params = s"$col,K=$order"

  def zero = MomentsSummary(0L, 0L, Double.PositiveInfinity, Double.NegativeInfinity,
    new Array[Double](order))

  def summarize(block: ColumnarBlock, ctx: LeafCtx): MomentsSummary = {
    val c    = block.column(col)
    val xs   = new Array[Double](RowBatches.Capacity)
    var n    = 0L
    var miss = 0L
    var mn   = Double.PositiveInfinity
    var mx   = Double.NegativeInfinity
    val sums = new Array[Double](order)
    val rb   = block.batches
    while (rb.next()) {
      c.doubles(rb.rows, rb.size, xs)
      var k = 0
      while (k < rb.size) {
        val x = xs(k)
        if (x.isNaN) miss += 1
        else {
          if (x < mn) mn = x
          if (x > mx) mx = x
          var p = x
          var j = 0
          while (j < order) { sums(j) += p; p *= x; j += 1 }
        }
        k += 1
      }
      n += rb.size
    }
    MomentsSummary(n, miss, mn, mx, sums)
  }

  def merge(a: MomentsSummary, b: MomentsSummary): MomentsSummary = {
    val sums = new Array[Double](order)
    var j = 0
    while (j < order) { sums(j) = a.powerSums(j) + b.powerSums(j); j += 1 }
    MomentsSummary(a.count + b.count, a.missing + b.missing,
      math.min(a.min, b.min), math.max(a.max, b.max), sums)
  }
}
