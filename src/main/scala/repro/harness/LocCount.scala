package repro.harness

import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._

/** T6 — Fig. 9: coding effort per vizketch, measured as non-blank,
  * non-comment lines of the sketch's class body (brace-matched from its
  * declaration), plus the same count for the kernels the vizketches
  * share. The paper's point is that every vizketch is small (35–191 LOC
  * of backend code); we report the same metric for ours.
  */
object T6VizketchLoc {

  final case class Row(vizketch: String, loc: Int, paperLoc: Option[Int])

  /** label -> (source file, top-level declarations counted, paper LOC). The
    * shared kernels have no paper LOC; they are counted so that code moved
    * out of a vizketch class into one still counts.
    */
  val Mapping: Seq[(String, String, Seq[String], Option[Int])] = Seq(
    ("Histogram", "HistogramSketch.scala", Seq("final case class HistogramSketch"), Some(114)),
    ("CDF", "HistogramSketch.scala", Seq("object CdfSketch"), Some(114)),
    ("Stacked histogram", "StackedHistogramSketch.scala", Seq("final case class StackedHistogramSketch"), Some(130)),
    ("Heatmap", "HeatmapSketch.scala", Seq("final case class HeatmapSketch"), Some(130)),
    ("Heatmap trellis", "HeatmapSketch.scala", Seq("final case class TrellisHeatmapSketch"), Some(127)),
    ("Quantile", "QuantileSketch.scala", Seq("final case class QuantileSketch"), Some(79)),
    ("Next items", "NextItemsSketch.scala", Seq("final case class NextItemsSketch"), Some(191)),
    ("Find text", "NextItemsSketch.scala", Seq("final case class FindTextSketch"), Some(108)),
    ("Heavy hitters (sampling)", "HeavyHitters.scala", Seq("final case class SamplingHeavyHittersSketch"), Some(35)),
    ("Range", "MomentsSketch.scala", Seq("final case class MomentsSketch"), Some(156)),
    ("Number distinct", "Hll.scala", Seq("final case class HllSketch"), Some(117)),
    ("Chart bucket tally (shared kernel)", "BucketTally.scala", Seq("private[core] object BucketTally"), None),
    ("Value counts (shared kernel)", "ValueCounts.scala", Seq("final class ValueCounts", "object ValueCounts"), None),
    ("Next rows (shared kernel)", "RowKey.scala", Seq("private[core] final class NextRows"), None),
    ("Sorted-run union (shared kernel)", "Util.scala", Seq("private[core] object SortedRuns"), None),
  )

  /** The core sources, found from either the repo root or a subproject
    * working directory (forked bench JVMs run with cwd = bench/).
    */
  def coreDir: String =
    Seq("src/main/scala/repro/core", "../src/main/scala/repro/core")
      .find(p => Files.isDirectory(Paths.get(p)))
      .getOrElse(throw new IllegalStateException("cannot locate repro/core sources"))

  /** LOC of the brace-delimited body starting at `decl` in `file`. */
  def blockLoc(file: String, decl: String): Int = {
    val lines = Files.readAllLines(Paths.get(coreDir, file)).asScala.toVector
    val start = lines.indexWhere(_.startsWith(decl))
    require(start >= 0, s"declaration not found: $decl in $file")
    var depth  = 0
    var opened = false
    var i      = start
    var loc    = 0
    while (i < lines.length && (!opened || depth > 0)) {
      val line    = lines(i)
      val trimmed = line.trim
      if (trimmed.nonEmpty && !trimmed.startsWith("//") && !trimmed.startsWith("*") &&
          !trimmed.startsWith("/*")) loc += 1
      for (ch <- line) {
        if (ch == '{') { depth += 1; opened = true }
        else if (ch == '}') depth -= 1
      }
      i += 1
    }
    loc
  }

  def run(): Seq[Row] =
    Mapping.map { case (name, file, decls, paper) => Row(name, decls.map(blockLoc(file, _)).sum, paper) }

  def render(rows: Seq[Row]): String =
    TableText.render("T6 (Fig. 9): vizketch coding effort (LOC)",
      Seq("Vizketch", "LOC (ours)", "LOC (paper)"),
      rows.map(r => Seq(r.vizketch, r.loc.toString, r.paperLoc.fold("—")(_.toString))))
}
