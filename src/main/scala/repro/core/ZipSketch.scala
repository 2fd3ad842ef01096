package repro.core

import repro.storage.ColumnarBlock

/** Run two vizketches in one pass over the data and merge their summaries
  * pointwise. Fig. 4 writes "histogram & cdf" for operations executed
  * concurrently; zipping them keeps the single-scan cost while both
  * summaries ride the same execution tree.
  */
final case class ZipSketch[A, B](left: Sketch[A], right: Sketch[B]) extends Sketch[(A, B)] {
  def name            = s"zip(${left.name},${right.name})"
  override def params = s"${left.params};${right.params}"

  def zero = (left.zero, right.zero)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): (A, B) =
    (left.summarize(block, ctx), right.summarize(block, ctx.copy(seed = ctx.seed + 0x51ab)))

  def merge(a: (A, B), b: (A, B)): (A, B) =
    (left.merge(a._1, b._1), right.merge(a._2, b._2))
}
