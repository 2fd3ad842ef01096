package repro.core

import repro.storage.ColumnarBlock

/** Heat-map summary: a Bx×By matrix of bin counts (paper §4.3). */
final case class HeatmapSummary(
    cells: Array[Long], // row-major: x * by + y
    bx: Int,
    by: Int,
    missing: Long,
    sampled: Long,
    rate: Double
) extends Serializable {
  def cell(x: Int, y: Int): Long = cells(x * by + y)
  def estimates: Array[Double]   = cells.map(_ / rate)
}

/** Heat-map vizketch: bins in two dimensions, density rendered on a
  * c≈20-color scale with at most one-shade error w.h.p. (Fig. 3b).
  * Sampling is allowed only for linear color maps; a log color scale
  * needs rate = 1 (App. C.2) — callers choose.
  */
final case class HeatmapSketch(
    colX: String, bucketsX: BucketSpec,
    colY: String, bucketsY: BucketSpec,
    rate: Double = 1.0
) extends Sketch[HeatmapSummary] {
  require(rate > 0 && rate <= 1.0, s"rate must be in (0,1]: $rate")
  def name            = if (rate >= 1.0) "heatmap.streaming" else "heatmap.sampled"
  override def params = f"$colX,${bucketsX.params},$colY,${bucketsY.params},r=$rate%.8f"

  def zero = HeatmapSummary(
    new Array[Long](bucketsX.count * bucketsY.count),
    bucketsX.count, bucketsY.count, 0L, 0L, rate)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): HeatmapSummary =
    plot(BucketTally(block, Seq(colX -> bucketsX, colY -> bucketsY), rate, ctx.rng), 0)

  /** Slots of one (x, y) plane of a tally. */
  private[core] val plane = BucketTally.slots(bucketsX) * BucketTally.slots(bucketsY)

  /** The heat map of the plane of `tally` whose slots start at `from`: a
    * row is missing unless both its x and y are in a bucket.
    */
  private[core] def plot(tally: Array[Long], from: Int): HeatmapSummary = {
    val cells   = BucketTally.cells(tally, from, bucketsX.count, bucketsY.count)
    val visited = BucketTally.sum(tally, from, from + plane)
    HeatmapSummary(cells, bucketsX.count, bucketsY.count, visited - BucketTally.sum(cells), visited, rate)
  }

  def merge(a: HeatmapSummary, b: HeatmapSummary): HeatmapSummary = {
    require(a.bx == b.bx && a.by == b.by, "heatmap dims mismatch in merge")
    require(a.rate == b.rate, "rate mismatch in merge")
    HeatmapSummary(BucketTally.add(a.cells, b.cells), a.bx, a.by, a.missing + b.missing, a.sampled + b.sampled, a.rate)
  }
}

/** Trellis-plot summary: one heatmap per group of the trellis column
  * (paper App. B.1). Because the total rendering area is fixed, k plots
  * are each smaller — the total bin count matches a single heatmap of the
  * same pixel dimensions.
  */
final case class TrellisSummary(plots: Array[HeatmapSummary]) extends Serializable

/** 1-D trellis of heatmaps grouped by column W's buckets. */
final case class TrellisHeatmapSketch(
    colW: String, groups: BucketSpec,
    colX: String, bucketsX: BucketSpec,
    colY: String, bucketsY: BucketSpec,
    rate: Double = 1.0
) extends Sketch[TrellisSummary] {
  private val inner = HeatmapSketch(colX, bucketsX, colY, bucketsY, rate)
  def name            = "trellis.heatmap"
  override def params = s"$colW,${groups.params};${inner.params}"

  def zero = TrellisSummary(Array.fill(groups.count)(inner.zero))

  /** Rows whose group is missing or outside the groups are in no plot. */
  def summarize(block: ColumnarBlock, ctx: LeafCtx): TrellisSummary = {
    val tally = BucketTally(block, Seq(colW -> groups, colX -> bucketsX, colY -> bucketsY), rate, ctx.rng)
    TrellisSummary(Array.tabulate(groups.count)(g => inner.plot(tally, (g + 2) * inner.plane)))
  }

  def merge(a: TrellisSummary, b: TrellisSummary): TrellisSummary = {
    require(a.plots.length == b.plots.length, "trellis group count mismatch")
    TrellisSummary(Array.tabulate(a.plots.length)(g => inner.merge(a.plots(g), b.plots(g))))
  }
}
