package repro.core

import repro.storage.ColumnarBlock

/** Seed context handed to each leaf invocation.
  *
  * `blockId` is the global index of the micropartition; combining it with
  * the query seed makes randomized vizketches deterministic, which the
  * paper requires for redo-log replay after failures (§5.8).
  */
final case class LeafCtx(blockId: Long, seed: Long) {
  def rng: SplitMix = new SplitMix(SplitMix.mix(seed, blockId))
}

/** A vizketch: a mergeable summary tuned to a display resolution (§4.2).
  *
  * `summarize` runs single-threaded at a leaf over one micropartition;
  * `merge` combines two summaries at an aggregation node; `zero` is the
  * identity for `merge` (the summary of an empty dataset). Implementations
  * must satisfy, for exact sketches,
  * `summarize(D1 ⊎ D2) == merge(summarize(D1), summarize(D2))`,
  * and for sampled ones determinism in (seed, blocking). `merge` leaves
  * its arguments as they were: the root keeps each update it receives and
  * counts its bytes when they are first read.
  *
  * Per the paper's modularity claim (§5.5), implementations contain no
  * concurrency, communication, or storage code — the engine owns those.
  */
trait Sketch[S] extends Serializable {
  /** Stable name; part of the computation-cache key (§5.4). */
  def name: String

  /** Parameter string appended to the cache key; override when the result
    * depends on parameters beyond the name (bucket ranges, sample rates).
    */
  def params: String = ""

  final def cacheKey: String = if (params.isEmpty) name else s"$name[$params]"

  def zero: S
  def summarize(block: ColumnarBlock, ctx: LeafCtx): S
  def merge(a: S, b: S): S
}
