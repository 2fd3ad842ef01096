package repro.core

import repro.storage.ColumnarBlock

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

  /** A bar counts every row of its x bucket, y missing or outside too. */
  def summarize(block: ColumnarBlock, ctx: LeafCtx): StackedHistogramSummary = {
    val tally   = BucketTally(block, Seq(colX -> bucketsX, colY -> bucketsY), rate, ctx.rng)
    val sy      = BucketTally.slots(bucketsY)
    val bars    = Array.tabulate(bucketsX.count)(x => BucketTally.sum(tally, (x + 2) * sy, (x + 3) * sy))
    val cells   = BucketTally.cells(tally, 0, bucketsX.count, bucketsY.count)
    val visited = BucketTally.sum(tally)
    StackedHistogramSummary(bars, cells, visited - BucketTally.sum(bars), visited, rate)
  }

  def merge(a: StackedHistogramSummary, b: StackedHistogramSummary): StackedHistogramSummary = {
    require(a.rate == b.rate, "rate mismatch in merge")
    StackedHistogramSummary(BucketTally.add(a.barCounts, b.barCounts), BucketTally.add(a.cellCounts, b.cellCounts),
      a.missing + b.missing, a.sampled + b.sampled, a.rate)
  }
}
