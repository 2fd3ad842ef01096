package repro.core

import repro.storage.{ColumnarBlock, RowBatches}

/** Heat-map summary: a Bx×By matrix of bin counts (paper §4.3). */
final case class HeatmapSummary(
    cells: Array[Long], // row-major: x * by + y
    bx: Int,
    by: Int,
    missing: Long,
    sampled: Long,
    rate: Double
) extends Serializable {
  def cell(x: Int, y: Int): Long           = cells(x * by + y)
  def estimate(x: Int, y: Int): Double     = cell(x, y) / rate
  def estimates: Array[Double]             = cells.map(_ / rate)
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

  def summarize(block: ColumnarBlock, ctx: LeafCtx): HeatmapSummary = {
    val by     = bucketsY.count
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
        val y = ys(k)
        if (x < 0 || y < 0) miss += 1 else cells(x * by + y) += 1
        k += 1
      }
      total += n
    }
    HeatmapSummary(cells, bucketsX.count, by, miss, total, rate)
  }

  def merge(a: HeatmapSummary, b: HeatmapSummary): HeatmapSummary = {
    require(a.bx == b.bx && a.by == b.by, "heatmap dims mismatch in merge")
    require(a.rate == b.rate, "rate mismatch in merge")
    val cells = new Array[Long](a.cells.length)
    var i = 0
    while (i < cells.length) { cells(i) = a.cells(i) + b.cells(i); i += 1 }
    HeatmapSummary(cells, a.bx, a.by, a.missing + b.missing, a.sampled + b.sampled, a.rate)
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

  def summarize(block: ColumnarBlock, ctx: LeafCtx): TrellisSummary = {
    // One pass: route each row to its group's heatmap accumulator.
    val by     = bucketsY.count
    val plot   = bucketsX.count * by
    val cells  = new Array[Long](groups.count * plot)
    val miss   = new Array[Long](groups.count)
    val total  = new Array[Long](groups.count)
    val boundW = groups.bind(block.column(colW))
    val boundX = bucketsX.bind(block.column(colX))
    val boundY = bucketsY.bind(block.column(colY))
    val ws     = new Array[Int](RowBatches.Capacity)
    val xs     = new Array[Int](RowBatches.Capacity)
    val ys     = new Array[Int](RowBatches.Capacity)
    val rb     = block.batches(rate, ctx.rng)
    while (rb.next()) {
      val n = rb.size
      boundW.fill(rb.rows, n, ws)
      boundX.fill(rb.rows, n, xs)
      boundY.fill(rb.rows, n, ys)
      var k = 0
      while (k < n) {
        val g = ws(k)
        if (g >= 0) {
          total(g) += 1
          val x = xs(k)
          val y = ys(k)
          if (x < 0 || y < 0) miss(g) += 1 else cells(g * plot + x * by + y) += 1
        }
        k += 1
      }
    }
    TrellisSummary(Array.tabulate(groups.count)(g => HeatmapSummary(
      java.util.Arrays.copyOfRange(cells, g * plot, (g + 1) * plot), bucketsX.count, by, miss(g), total(g), rate)))
  }

  def merge(a: TrellisSummary, b: TrellisSummary): TrellisSummary = {
    require(a.plots.length == b.plots.length, "trellis group count mismatch")
    TrellisSummary(Array.tabulate(a.plots.length)(g => inner.merge(a.plots(g), b.plots(g))))
  }
}
