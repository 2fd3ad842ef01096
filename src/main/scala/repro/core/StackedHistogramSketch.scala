package repro.core

import repro.storage.{ColumnarBlock, RowBatches}

/** Stacked-histogram summary (paper App. B.1): Bx bar counts followed by
  * Bx×By subdivision counts, flattened. The normalized variant renders
  * from the same summary computed without sampling (rate = 1), since
  * small bars normalized to full height need exact subdivision counts.
  */
final case class StackedHistogramSummary(
    barCounts: Array[Long],       // length Bx
    cellCounts: Array[Long],      // length Bx*By, row-major by X bucket
    missing: Long,
    sampled: Long,
    rate: Double
) extends Serializable {
  def bx: Int = barCounts.length
  def by: Int = if (bx == 0) 0 else cellCounts.length / bx
  def cell(x: Int, y: Int): Long        = cellCounts(x * by + y)
  def estimateBar(x: Int): Double       = barCounts(x) / rate
  def estimateCell(x: Int, y: Int): Double = cell(x, y) / rate
}

/** Vizketch for stacked histograms over columns X (bars) and Y (colored
  * subdivisions, By ≤ ~20 since "the human eye cannot distinguish many
  * colors"). Sample target O(V²·Bx²·log(1/δ)); rate = 1 gives the exact
  * (normalized-capable) variant.
  */
final case class StackedHistogramSketch(
    colX: String, bucketsX: BucketSpec,
    colY: String, bucketsY: BucketSpec,
    rate: Double = 1.0
) extends Sketch[StackedHistogramSummary] {
  require(rate > 0 && rate <= 1.0, s"rate must be in (0,1]: $rate")
  def name            = if (rate >= 1.0) "stacked.streaming" else "stacked.sampled"
  override def params = f"$colX,${bucketsX.params},$colY,${bucketsY.params},r=$rate%.8f"

  def zero = StackedHistogramSummary(
    new Array[Long](bucketsX.count),
    new Array[Long](bucketsX.count * bucketsY.count), 0L, 0L, rate)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): StackedHistogramSummary = {
    val by     = bucketsY.count
    val bars   = new Array[Long](bucketsX.count)
    val cells  = new Array[Long](bucketsX.count * by)
    val boundX = bucketsX.bind(block.column(colX))
    val boundY = bucketsY.bind(block.column(colY))
    val xs     = new Array[Int](RowBatches.Capacity)
    val ys     = new Array[Int](RowBatches.Capacity)
    var miss   = 0L
    var total  = 0L
    val rb     = block.batches(rate, ctx.rng)
    while (rb.next()) {
      val n = rb.size
      boundX.fill(rb.rows, n, xs)
      boundY.fill(rb.rows, n, ys)
      var k = 0
      while (k < n) {
        val x = xs(k)
        if (x < 0) miss += 1
        else {
          bars(x) += 1
          val y = ys(k)
          if (y >= 0) cells(x * by + y) += 1
        }
        k += 1
      }
      total += n
    }
    StackedHistogramSummary(bars, cells, miss, total, rate)
  }

  def merge(a: StackedHistogramSummary, b: StackedHistogramSummary): StackedHistogramSummary = {
    require(a.barCounts.length == b.barCounts.length, "Bx mismatch in merge")
    require(a.rate == b.rate, "rate mismatch in merge")
    val bars  = new Array[Long](a.barCounts.length)
    val cells = new Array[Long](a.cellCounts.length)
    var i = 0
    while (i < bars.length)  { bars(i)  = a.barCounts(i)  + b.barCounts(i);  i += 1 }
    i = 0
    while (i < cells.length) { cells(i) = a.cellCounts(i) + b.cellCounts(i); i += 1 }
    StackedHistogramSummary(bars, cells, a.missing + b.missing, a.sampled + b.sampled, a.rate)
  }
}
