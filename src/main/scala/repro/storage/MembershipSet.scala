package repro.storage

import repro.core.SplitMix

/** Which rows of a shared block belong to a (possibly filtered) table.
  *
  * Paper §5.6: derived tables share column data and store a "membership
  * set"; dense tables store a bitmap, sparse tables a hash-set of row
  * indexes, and uniform sampling must work over both without reading
  * every row. We implement the dense case as a bitmap and the sparse case
  * as a sorted index array. Both are read through a `RowBatches` cursor
  * that yields member row ids in increasing order, a batch at a time,
  * optionally Bernoulli-sampled with geometric skips (Bernoulli over
  * members is uniform, matching the hash-order scheme in the paper).
  */
sealed trait MembershipSet extends Serializable {
  /** Number of rows in the underlying block. */
  def universe: Int
  /** Number of member rows. */
  def size: Int
  def contains(i: Int): Boolean

  /** Cursor over a Bernoulli(rate) sample of members in increasing row
    * order, deterministic in `rng`; every member when rate ≥ 1 (then `rng`
    * is not read).
    */
  def batches(rate: Double, rng: SplitMix): RowBatches

  /** Cursor over every member in increasing row order. */
  final def batches: RowBatches = batches(1.0, null)
}

object MembershipSet {
  /** Above this member density a bitmap is cheaper than an index array. */
  val DenseThreshold = 0.25

  def full(universe: Int): MembershipSet = FullMembership(universe)

  /** Build from a predicate over row indices, picking dense vs sparse
    * representation by density (paper §5.6).
    */
  def from(universe: Int, pred: Int => Boolean): MembershipSet = select(full(universe), pred)

  /** The members of `parent` that satisfy `pred`; `pred` is evaluated on
    * members only.
    */
  def from(parent: MembershipSet, pred: Int => Boolean): MembershipSet = select(parent, pred)

  // Both `from`s share this body rather than calling each other, so each
  // build is one call of a traced entry point.
  private def select(parent: MembershipSet, pred: Int => Boolean): MembershipSet = {
    val universe = parent.universe
    val words    = new Array[Long]((universe + 63) >>> 6)
    var n        = 0
    val rb       = parent.batches
    while (rb.next()) {
      val rows = rb.rows
      var k    = 0
      while (k < rb.size) {
        val i = rows(k)
        if (pred(i)) { words(i >>> 6) |= 1L << i; n += 1 }
        k += 1
      }
    }
    if (n == universe) FullMembership(universe)
    else if (n >= universe * DenseThreshold) new DenseMembership(universe, words)
    else {
      val idx = new Array[Int](n)
      val all = new DenseMembership(universe, words).batches
      var j   = 0
      while (all.next()) { System.arraycopy(all.rows, 0, idx, j, all.size); j += all.size }
      new SparseMembership(universe, idx)
    }
  }

  /** Longest skip drawn; keeps `position + skip` inside Int for any block. */
  private val MaxSkip = (1 << 30).toDouble

  /** `1 + floor(E · scale)` with E ~ Exp(1) and scale = −1/log(1 − rate):
    * a Geometric(rate) skip from one ziggurat draw, without a `log`, so
    * that each element is kept independently with probability `rate`.
    * Scale 0 stands for rate 1: every skip is 1.
    */
  private[storage] def skipBy(scale: Double, rng: SplitMix): Int =
    1 + math.min(rng.nextExponential() * scale, MaxSkip).toInt
}

/** Cursor over member row ids: each `next()` fills `rows(0 until size)`
  * with the next batch, in increasing row order, and returns false once
  * the members (or the sample) are exhausted. Callers run their own
  * monomorphic loop over each batch.
  */
sealed abstract class RowBatches(rate: Double, rng: SplitMix) {
  final val rows: Array[Int] = new Array[Int](RowBatches.Capacity)
  protected final var n: Int = 0
  /** Row ids filled by the last `next()`. */
  final def size: Int = n
  def next(): Boolean

  protected final val sampled: Boolean = rate < 1.0
  private[this] val scale = if (sampled) -1.0 / math.log1p(-rate) else 0.0
  protected final def skip(): Int = MembershipSet.skipBy(scale, rng)
}

object RowBatches {
  /** Row ids per batch: large enough to amortise the per-batch calls, small
    * enough that a batch and its bucket ids stay in L1.
    */
  val Capacity = 2048
}

final case class FullMembership(universe: Int) extends MembershipSet {
  def size: Int                 = universe
  def contains(i: Int): Boolean = i >= 0 && i < universe

  def batches(rate: Double, rng: SplitMix): RowBatches = new RowBatches(rate, rng) {
    private var pos = if (sampled) skip() - 1 else 0
    def next(): Boolean = {
      var k = 0
      if (sampled) {
        while (k < RowBatches.Capacity && pos < universe) { rows(k) = pos; k += 1; pos += skip() }
      } else {
        val m     = math.min(RowBatches.Capacity, universe - pos)
        val first = pos
        val ids   = rows
        while (k < m) { ids(k) = first + k; k += 1 }
        pos += m
      }
      n = k
      k > 0
    }
  }
}

/** Bitmap of members: bit `i & 63` of `words(i >>> 6)` is row i. */
final class DenseMembership(val universe: Int, words: Array[Long]) extends MembershipSet {
  val size: Int = words.foldLeft(0)((s, w) => s + java.lang.Long.bitCount(w))
  def contains(i: Int): Boolean = i >= 0 && i < universe && (words(i >>> 6) & (1L << i)) != 0

  /** Unsampled: scan the words. Sampled: draw positions over the whole
    * universe at `rate` and keep the members, which is still Bernoulli(rate)
    * over members and costs O(rate · universe).
    */
  def batches(rate: Double, rng: SplitMix): RowBatches = new RowBatches(rate, rng) {
    private var pos  = if (sampled) skip() - 1 else 0
    private var w    = 0
    private var bits = if (words.length > 0) words(0) else 0L
    def next(): Boolean = {
      var k = 0
      if (sampled) {
        while (k < RowBatches.Capacity && pos < universe) {
          if ((words(pos >>> 6) & (1L << pos)) != 0) { rows(k) = pos; k += 1 }
          pos += skip()
        }
      } else {
        while (k < RowBatches.Capacity && w < words.length) {
          if (bits == 0L) { w += 1; if (w < words.length) bits = words(w) }
          else {
            rows(k) = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
            bits &= bits - 1
            k += 1
          }
        }
      }
      n = k
      k > 0
    }
  }
}

final class SparseMembership(val universe: Int, sortedIdx: Array[Int]) extends MembershipSet {
  def size: Int                 = sortedIdx.length
  def contains(i: Int): Boolean = java.util.Arrays.binarySearch(sortedIdx, i) >= 0

  /** Positions into the sorted index array, sampled with the same skips. */
  def batches(rate: Double, rng: SplitMix): RowBatches = new RowBatches(rate, rng) {
    private var pos = if (sampled) skip() - 1 else 0
    def next(): Boolean = {
      var k = 0
      if (sampled) {
        while (k < RowBatches.Capacity && pos < sortedIdx.length) { rows(k) = sortedIdx(pos); k += 1; pos += skip() }
      } else {
        k = math.min(RowBatches.Capacity, sortedIdx.length - pos)
        System.arraycopy(sortedIdx, pos, rows, 0, k)
        pos += k
      }
      n = k
      k > 0
    }
  }
}
