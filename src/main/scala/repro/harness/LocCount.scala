package repro.harness

import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._

/** T6 — Fig. 9: coding effort per vizketch, measured as non-blank,
  * non-comment lines of the sketch's class body (brace-matched from its
  * declaration). The paper's point is that every vizketch is small
  * (35–191 LOC of backend code); we report the same metric for ours.
  */
object T6VizketchLoc {

  final case class Row(vizketch: String, loc: Int, paperLoc: Int)

  /** vizketch label -> (source file, top-level declaration, paper LOC). */
  val Mapping: Seq[(String, String, String, Int)] = Seq(
    ("Histogram", "HistogramSketch.scala", "final case class HistogramSketch", 114),
    ("CDF", "HistogramSketch.scala", "object CdfSketch", 114),
    ("Stacked histogram", "StackedHistogramSketch.scala", "final case class StackedHistogramSketch", 130),
    ("Heatmap", "HeatmapSketch.scala", "final case class HeatmapSketch", 130),
    ("Heatmap trellis", "HeatmapSketch.scala", "final case class TrellisHeatmapSketch", 127),
    ("Quantile", "QuantileSketch.scala", "final case class QuantileSketch", 79),
    ("Next items", "NextItemsSketch.scala", "final case class NextItemsSketch", 191),
    ("Find text", "NextItemsSketch.scala", "final case class FindTextSketch", 108),
    ("Heavy hitters (sampling)", "HeavyHitters.scala", "final case class SamplingHeavyHittersSketch", 35),
    ("Range", "MomentsSketch.scala", "final case class MomentsSketch", 156),
    ("Number distinct", "Hll.scala", "final case class HllSketch", 117),
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
    Mapping.map { case (name, file, decl, paper) => Row(name, blockLoc(file, decl), paper) }

  def render(rows: Seq[Row]): String =
    TableText.render("T6 (Fig. 9): vizketch coding effort (LOC)",
      Seq("Vizketch", "LOC (ours)", "LOC (paper)"),
      rows.map(r => Seq(r.vizketch, r.loc.toString, r.paperLoc.toString)))
}
