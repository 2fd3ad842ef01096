package repro.core

import repro.storage.ColumnarBlock
import scala.jdk.CollectionConverters._

/** Summary for equi-width string buckets (App. B.1): the distinct values
  * with the k smallest hashes (bottom-k over *distinct* strings — a
  * mergeable approximate-quantile sketch over the distinct domain), plus
  * an exact distinct set maintained until it exceeds `maxExact` so small
  * domains get one bucket per value.
  */
final case class StringBucketsSummary(
    bottomK: Vector[(Long, String)],     // (hash, value) sorted by hash, distinct
    exact: Set[String],                  // valid only when !overflow
    overflow: Boolean,
    k: Int,
    maxExact: Int
) extends Serializable

/** Bottom-k sketch over distinct strings (Cohen–Kaplan / Thorup [19, 92]):
  * the k smallest distinct hash values give a uniform sample of the
  * distinct domain; sorted, they yield approximate quantiles used as
  * bucket boundaries (≤ 50 buckets for string histograms).
  */
final case class StringBucketsSketch(col: String, k: Int = 5000, maxExact: Int = 50)
    extends Sketch[StringBucketsSummary] {
  require(k > 0 && maxExact > 0)
  def name            = "stringbuckets"
  override def params = s"$col,k=$k,maxExact=$maxExact"

  def zero = StringBucketsSummary(Vector.empty, Set.empty, overflow = false, k, maxExact)

  /** One pass over the distinct values of the block (`ValueCounts`), each
    * hashed once.
    */
  def summarize(block: ColumnarBlock, ctx: LeafCtx): StringBucketsSummary = {
    val heap  = new java.util.TreeMap[Long, String]() // hash -> value, keep k smallest
    val exact = new java.util.HashSet[String]()
    ValueCounts(block.column(col), block.batches).iterator.foreach { case (v, _) =>
      if (exact.size <= maxExact) exact.add(v)
      val h = SplitMix.hashString(v)
      if (heap.size < k || h < heap.lastKey) {
        heap.put(h, v)
        if (heap.size > k) heap.pollLastEntry()
      }
    }
    val overflow = exact.size > maxExact
    StringBucketsSummary(
      heap.entrySet.asScala.iterator.map(e => (e.getKey.longValue, e.getValue)).toVector,
      if (overflow) Set.empty else exact.asScala.toSet,
      overflow, k, maxExact)
  }

  def merge(a: StringBucketsSummary, b: StringBucketsSummary): StringBucketsSummary = {
    // Union of two sorted distinct runs, trimmed to the k smallest hashes.
    val bottomK = SortedRuns.union(a.bottomK, b.bottomK, k)(
      (x, y) => java.lang.Long.compare(x._1, y._1), (x, _) => x)
    val overflow = a.overflow || b.overflow || (a.exact ++ b.exact).size > maxExact
    StringBucketsSummary(bottomK,
      if (overflow) Set.empty else a.exact ++ b.exact, overflow, k, maxExact)
  }
}

object StringBucketsSketch {
  /** Bucket spec from the summary: one bucket per value when the domain is
    * small, otherwise ≤ maxBuckets boundaries at the distinct-domain
    * quantiles 1/B, 2/B, … (App. B.1).
    */
  def toBuckets(s: StringBucketsSummary, maxBuckets: Int = 50): BucketSpec =
    if (!s.overflow) ExactStringBuckets(s.exact.toArray.sorted)
    else {
      val sample = s.bottomK.map(_._2).sorted.toArray
      val b      = math.min(maxBuckets, sample.length)
      val bounds = Array.tabulate(b)(j => sample((j.toLong * sample.length / b).toInt))
      StringBoundaryBuckets(bounds.distinct)
    }

  /** Approximate distinct count implied by the bottom-k sample: if the
    * k-th smallest of D distinct hashes is h, then D ≈ k·2^64/h.
    */
  def distinctEstimate(s: StringBucketsSummary): Double =
    if (!s.overflow) s.exact.size.toDouble
    else if (s.bottomK.length < s.k) s.bottomK.length.toDouble
    else {
      // Hashes are signed longs; shift to the unsigned scale [0, 2^64).
      val kth = s.bottomK.last._1.toDouble + 9.223372036854775808e18
      math.max(s.bottomK.length.toDouble, s.k.toDouble * 1.8446744073709552e19 / math.max(kth, 1.0))
    }
}
