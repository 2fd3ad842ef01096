package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData._
import repro.storage.{ColumnarBlock, DoubleColumn, StringColumn}

class StackedHistogramSketchSpec extends AnyFunSuite {

  private def mixedBlock(xs: Array[Double], ys: Seq[String]): ColumnarBlock = {
    val dict  = ys.filter(_ != null).distinct.toArray
    val index = dict.zipWithIndex.toMap
    ColumnarBlock.of(xs.length,
      "x" -> DoubleColumn(xs),
      "y" -> StringColumn(dict, ys.map(v => if (v == null) -1 else index(v)).toArray))
  }

  private val n   = 10000
  private val xs  = randomDoubles(n, seed = 4)
  private val ys  = zipfStrings(n, 5, seed = 6)
  private val xb  = NumericBuckets(0, 100, 20)
  private val yb  = ExactStringBuckets(Array("key0", "key1", "key2", "key3", "key4"))

  private def splitMixed(parts: Int): IndexedSeq[ColumnarBlock] = {
    val size = (n + parts - 1) / parts
    (0 until parts).map { p =>
      val from = p * size
      val to   = math.min(n, from + size)
      mixedBlock(xs.slice(from, to), ys.slice(from, to))
    }
  }

  test("streaming stacked histogram matches brute force") {
    val got = sketchAll(StackedHistogramSketch("x", xb, "y", yb), splitMixed(5))
    for (x <- 0 until xb.count; y <- 0 until yb.count) {
      val exact = xs.indices.count(i => xb.indexOf(xs(i)) == x && yb.indexOf(ys(i)) == y)
      assert(got.cell(x, y) == exact.toLong, s"cell ($x,$y)")
    }
  }

  test("bar counts equal the sum of their subdivisions when Y is total") {
    val got = sketchAll(StackedHistogramSketch("x", xb, "y", yb), splitMixed(3))
    for (x <- 0 until xb.count)
      assert(got.barCounts(x) == (0 until yb.count).map(got.cell(x, _)).sum)
  }

  test("split invariance of the stacked summary") {
    val whole = sketchAll(StackedHistogramSketch("x", xb, "y", yb), splitMixed(1))
    val split = sketchAll(StackedHistogramSketch("x", xb, "y", yb), splitMixed(11))
    assert(whole.cellCounts.toSeq == split.cellCounts.toSeq)
    assert(whole.barCounts.toSeq == split.barCounts.toSeq)
  }

  test("sampled stacked histogram estimates bars within tolerance") {
    val rate = 0.3
    val got   = sketchAll(StackedHistogramSketch("x", xb, "y", yb, rate), splitMixed(5))
    val whole = sketchAll(StackedHistogramSketch("x", xb, "y", yb), splitMixed(5))
    for (x <- 0 until xb.count) {
      val tol = 5 * math.sqrt(math.max(whole.barCounts(x), 10) / rate)
      assert(math.abs(got.estimateBar(x) - whole.barCounts(x)) < tol)
    }
  }

  test("merge rejects incompatible summaries") {
    val sk = StackedHistogramSketch("x", xb, "y", yb)
    val other = StackedHistogramSketch("x", NumericBuckets(0, 100, 5), "y", yb)
    intercept[IllegalArgumentException](sk.merge(sk.zero, other.zero))
  }
}

class HeatmapSketchSpec extends AnyFunSuite {

  private val n  = 8000
  private val xs = randomDoubles(n, seed = 7)
  private val ys = xs.zipWithIndex.map { case (x, i) => (x + randomDoubles(1, i.toLong)(0)) / 2 }
  private val bx = NumericBuckets(0, 100, 12)
  private val by = NumericBuckets(0, 100, 10)

  private def blocks(parts: Int) = {
    val size = (n + parts - 1) / parts
    (0 until parts).map { p =>
      val from = p * size; val to = math.min(n, from + size)
      twoColBlock(xs.slice(from, to), ys.slice(from, to))
    }
  }

  test("streaming heatmap matches brute force") {
    val got = sketchAll(HeatmapSketch("x", bx, "y", by), blocks(4))
    for (x <- 0 until bx.count; y <- 0 until by.count) {
      val exact = xs.indices.count(i => bx.indexOf(xs(i)) == x && by.indexOf(ys(i)) == y)
      assert(got.cell(x, y) == exact.toLong, s"cell ($x,$y)")
    }
  }

  test("heatmap total cells + missing equals rows") {
    val got = sketchAll(HeatmapSketch("x", bx, "y", by), blocks(4))
    assert(got.cells.sum + got.missing == n.toLong)
  }

  test("heatmap split invariance") {
    assert(sketchAll(HeatmapSketch("x", bx, "y", by), blocks(1)).cells.toSeq ==
      sketchAll(HeatmapSketch("x", bx, "y", by), blocks(9)).cells.toSeq)
  }

  test("sampled heatmap within one color shade of exact (paper Fig. 3b)") {
    // The guarantee holds for the formula-derived rate (App. C.2):
    // n = O(C²/p_max²·log(1/δ)). Use concentrated data so p_max is large
    // enough that the formula's rate is < 1, then check one-shade error.
    val m   = 60000
    val rng = new SplitMix(27)
    val xsL = Array.fill(m) { val u = rng.nextDouble(); u * u * u * u * 100 }
    val ysL = Array.fill(m) { val u = rng.nextDouble(); u * u * u * u * 100 }
    val big = twoColBlock(xsL, ysL)
    val colors = 20
    val exact = HeatmapSketch("x", bx, "y", by).summarize(big, LeafCtx(0, 0))
    val pMax  = exact.cells.max.toDouble / m
    val rate  = SampleSize.rate(SampleSize.heatmap(colors, pMax), m)
    assert(rate < 1.0, s"test needs a non-trivial rate, got $rate (pMax=$pMax)")
    val smp = HeatmapSketch("x", bx, "y", by, rate).summarize(big, LeafCtx(0, 1))
    val ce = Render.heatmapColors(exact.estimates, colors)
    val cs = Render.heatmapColors(smp.estimates, colors)
    val off = ce.indices.count(i => math.abs(ce(i) - cs(i)) > 1)
    assert(off == 0, s"$off cells off by more than one shade")
  }

  test("merge rejects mismatched dimensions") {
    val sk = HeatmapSketch("x", bx, "y", by)
    intercept[IllegalArgumentException](
      sk.merge(sk.zero, HeatmapSketch("x", bx, "y", NumericBuckets(0, 1, 3)).zero))
  }
}

class TrellisSketchSpec extends AnyFunSuite {

  private val n  = 6000
  private val xs = randomDoubles(n, seed = 8)
  private val ys = randomDoubles(n, seed = 9)
  private val ws = zipfStrings(n, 3, seed = 10)
  private val bx = NumericBuckets(0, 100, 6)
  private val by = NumericBuckets(0, 100, 6)
  private val wb = ExactStringBuckets(Array("key0", "key1", "key2"))

  private def block: ColumnarBlock = {
    val dict  = ws.distinct.toArray
    val index = dict.zipWithIndex.toMap
    ColumnarBlock.of(n,
      "x" -> DoubleColumn(xs), "y" -> DoubleColumn(ys),
      "w" -> StringColumn(dict, ws.map(index).toArray))
  }

  test("trellis plots partition rows by group") {
    val got = TrellisHeatmapSketch("w", wb, "x", bx, "y", by).summarize(block, LeafCtx(0, 0))
    val totalCells = got.plots.map(_.cells.sum).sum
    val totalMiss  = got.plots.map(_.missing).sum
    assert(totalCells + totalMiss == n.toLong)
  }

  test("each trellis plot matches a filtered heatmap") {
    val got = TrellisHeatmapSketch("w", wb, "x", bx, "y", by).summarize(block, LeafCtx(0, 0))
    for (g <- 0 until wb.count) {
      val fb    = block.filtered(i => wb.indexOf(block.column("w"), i) == g)
      val plain = HeatmapSketch("x", bx, "y", by).summarize(fb, LeafCtx(0, 0))
      assert(got.plots(g).cells.toSeq == plain.cells.toSeq, s"group $g")
    }
  }

  test("trellis merge combines groupwise") {
    val sk = TrellisHeatmapSketch("w", wb, "x", bx, "y", by)
    val s  = sk.summarize(block, LeafCtx(0, 0))
    val m  = sk.merge(s, s)
    for (g <- 0 until wb.count)
      assert(m.plots(g).cells.toSeq == s.plots(g).cells.map(_ * 2).toSeq)
  }
}
