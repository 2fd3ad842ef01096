package repro.core

import repro.storage.ColumnarBlock

/** Heavy-hitter summary: per-value (approximate) counts plus the number of
  * rows inspected, so the root can apply frequency thresholds.
  */
final case class HeavyHittersSummary(
    counts: Map[String, Long],
    sampled: Long,
    rate: Double
) extends Serializable {
  /** Estimated true frequency of value v. */
  def estimate(v: String): Double = counts.getOrElse(v, 0L) / rate
}

/** Misra–Gries streaming heavy hitters (App. B.2 "Heavy hitters
  * (streaming)"): at most `maxCounters` counters; after n rows each kept
  * count undercounts the true count by at most n/(maxCounters+1). A leaf
  * counts its block exactly (`ValueCounts`) and `trim`s the counts; `merge`
  * adds counters and trims again. `trim` is Agarwal et al.'s [2] rule:
  * subtract the (k+1)-st largest count and drop non-positive entries, which
  * keeps the mergeable-summary error guarantee. A block with at most k
  * distinct values keeps its exact counts.
  */
final case class MisraGriesSketch(col: String, maxCounters: Int)
    extends Sketch[HeavyHittersSummary] {
  require(maxCounters > 0, "need at least one counter")
  def name            = "heavyhitters.streaming"
  override def params = s"$col,k=$maxCounters"

  def zero = HeavyHittersSummary(Map.empty, 0L, 1.0)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): HeavyHittersSummary = {
    val vc = ValueCounts(block.column(col), block.batches)
    HeavyHittersSummary(trim(vc.iterator.toMap), vc.rows, 1.0)
  }

  def merge(a: HeavyHittersSummary, b: HeavyHittersSummary): HeavyHittersSummary =
    HeavyHittersSummary(trim(HeavyHitters.add(a.counts, b.counts)), a.sampled + b.sampled, 1.0)

  private def trim(counts: Map[String, Long]): Map[String, Long] =
    if (counts.size <= maxCounters) counts
    else {
      val kth = counts.values.toSeq.sorted(Ordering[Long].reverse)(maxCounters)
      counts.view.mapValues(_ - kth).filter(_._2 > 0).toMap
    }
}

/** Sampling heavy hitters (§4.3 / Theorem 4): sample at `rate` targeting
  * n = K²·log(K/δ) rows; report values whose sampled count is at least
  * 3n/4K. W.h.p. this returns every value with frequency ≥ 1/K and none
  * with frequency ≤ 1/4K.
  */
final case class SamplingHeavyHittersSketch(col: String, rate: Double)
    extends Sketch[HeavyHittersSummary] {
  require(rate > 0 && rate <= 1.0, s"rate must be in (0,1]: $rate")
  def name            = "heavyhitters.sampling"
  override def params = f"$col,r=$rate%.8f"

  def zero = HeavyHittersSummary(Map.empty, 0L, rate)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): HeavyHittersSummary = {
    val vc = ValueCounts(block.column(col), block.batches(rate, ctx.rng))
    HeavyHittersSummary(vc.iterator.toMap, vc.rows, rate)
  }

  def merge(a: HeavyHittersSummary, b: HeavyHittersSummary): HeavyHittersSummary =
    HeavyHittersSummary(HeavyHitters.add(a.counts, b.counts), a.sampled + b.sampled, rate)
}

object HeavyHitters {
  /** Per-value sum of two count maps. */
  private[core] def add(a: Map[String, Long], b: Map[String, Long]): Map[String, Long] =
    (a.keySet ++ b.keySet).iterator.map(k => k -> (a.getOrElse(k, 0L) + b.getOrElse(k, 0L))).toMap

  /** Root-side selection for the sampling variant: values with sampled
    * count ≥ 3n/(4K), with estimated true counts (paper §4.3).
    */
  def select(s: HeavyHittersSummary, k: Int): Seq[(String, Double)] = {
    val threshold = 3.0 * s.sampled / (4.0 * k)
    s.counts.toSeq
      .filter(_._2 >= threshold)
      .map { case (v, c) => (v, c / s.rate) }
      .sortBy(-_._2)
  }

  /** Root-side selection for Misra–Gries: top values by kept count. */
  def top(s: HeavyHittersSummary, k: Int): Seq[(String, Double)] =
    s.counts.toSeq.sortBy(-_._2).take(k).map { case (v, c) => (v, c.toDouble) }
}
