package repro.core

import repro.storage.ColumnarBlock

/** Result of a distributed save: files written, rows written, errors.
  * Merging sums the tallies — the paper implements data output "through a
  * special vizketch with a summarize function that writes a data record
  * to the repository and returns an error indication, while the merge
  * function combines error indications" (§5.4).
  */
final case class SaveSummary(files: Int, rows: Long, errors: Vector[String]) extends Serializable

/** Writes each micropartition's member rows (the selected columns, CSV)
  * to `dir`, one file per block — each worker stores its partition of the
  * data. The heavy lifting rides the ordinary execution tree; only tiny
  * error summaries flow back to the root.
  */
final case class SaveTableSketch(dir: String, cols: Seq[String]) extends Sketch[SaveSummary] {
  require(cols.nonEmpty, "need at least one column to save")
  def name            = "save"
  override def params = s"$dir,${cols.mkString("+")}"

  def zero = SaveSummary(0, 0L, Vector.empty)

  def summarize(block: ColumnarBlock, ctx: LeafCtx): SaveSummary =
    try {
      val path = java.nio.file.Paths.get(dir, f"part-${ctx.blockId}%06d.csv")
      java.nio.file.Files.createDirectories(path.getParent)
      val w = java.nio.file.Files.newBufferedWriter(path)
      try {
        w.write(cols.mkString(",")); w.newLine()
        val cs = cols.map(block.column).toArray
        val rb = block.batches
        while (rb.next()) (0 until rb.size).foreach { r =>
          w.write(cs.map(c => Option(c.asString(rb.rows(r))).getOrElse("")).mkString(","))
          w.newLine()
        }
        SaveSummary(1, block.rowCount, Vector.empty)
      } finally w.close()
    } catch {
      case e: java.io.IOException => SaveSummary(0, 0L, Vector(s"block ${ctx.blockId}: ${e.getMessage}"))
    }

  def merge(a: SaveSummary, b: SaveSummary): SaveSummary =
    SaveSummary(a.files + b.files, a.rows + b.rows, a.errors ++ b.errors)
}
