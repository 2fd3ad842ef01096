package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.TestData._
import repro.storage.{Column, ColumnarBlock, DoubleColumn}

class QuantileSketchSpec extends AnyFunSuite {

  private val n      = 50000
  private val values = randomDoubles(n, seed = 12)
  private val sort   = Seq(SortCol("x"))

  test("quantile estimate is within the Theorem-2 rank bound") {
    val v    = 100 // scroll bar pixels
    val size = SampleSize.quantile(v).toInt
    val s    = sketchAll(QuantileSketch(sort, size), splitBlocks(values, 8))
    val sorted = values.sorted
    for (q <- Seq(0.1, 0.25, 0.5, 0.75, 0.9)) {
      val got  = QuantileSketch.quantileOf(s, sort, q).get.cells.head.asInstanceOf[NumCell].v
      val rank = sorted.count(_ <= got).toDouble / n
      assert(math.abs(rank - q) < 3.0 / (2 * v) + 0.02, f"q=$q rank=$rank%.3f")
    }
  }

  test("sample size is bounded by capacity") {
    val s = sketchAll(QuantileSketch(sort, 100), splitBlocks(values, 8))
    assert(s.sample.size == 100)
  }

  test("small data: sample holds everything, quantile is exact") {
    val vals = Array(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    val s    = sketchAll(QuantileSketch(sort, 100), splitBlocks(vals, 3))
    assert(s.sample.size == 10)
    val med = QuantileSketch.quantileOf(s, sort, 0.5).get.cells.head.asInstanceOf[NumCell].v
    assert(med == 6.0) // index floor(0.5*10)=5 of sorted
  }

  test("deterministic in seed; different seeds sample differently") {
    val a = sketchAll(QuantileSketch(sort, 500), splitBlocks(values, 4), seed = 1)
    val b = sketchAll(QuantileSketch(sort, 500), splitBlocks(values, 4), seed = 1)
    val c = sketchAll(QuantileSketch(sort, 500), splitBlocks(values, 4), seed = 2)
    assert(a.sample == b.sample)
    assert(a.sample != c.sample)
  }

  test("merge keeps the lowest-priority rows (bottom-k law)") {
    val sk = QuantileSketch(sort, 50)
    val s1 = sk.summarize(doubleBlockNamed("x", values.take(1000)), LeafCtx(0, 3))
    val s2 = sk.summarize(doubleBlockNamed("x", values.slice(1000, 2000)), LeafCtx(1, 3))
    val m  = sk.merge(s1, s2)
    val expected = (s1.sample ++ s2.sample).sortBy(_._1).take(50)
    assert(m.sample == expected.toVector)
  }

  test("empty input yields no quantile") {
    val s = QuantileSketch(sort, 10).zero
    assert(QuantileSketch.quantileOf(s, sort, 0.5).isEmpty)
  }

  private val mixed = (0 until 4).map(b => mixedBlock(700, seed = 40 + b))
  private val mixedSorts = Seq(
    Seq(SortCol("s"), SortCol("x", ascending = false)),
    Seq(SortCol("x"), SortCol("l"), SortCol("s", ascending = false)),
    Seq(SortCol("d", ascending = false), SortCol("s"), SortCol("l", ascending = false), SortCol("x")))

  test("quantileOf over the columnar summary equals sorting RowKeys with RowKey.ordering") {
    for (sortCols <- mixedSorts) {
      val s      = sketchAll(QuantileSketch(sortCols, 1000, rate = 0.6), mixed, seed = 9)
      val byKeys = s.sample.map(_._2).sorted(RowKey.ordering(sortCols))
      assert(s.size == 1000)
      for (idx <- byKeys.indices)
        assert(QuantileSketch.quantileOf(s, sortCols, (idx + 0.5) / byKeys.length).contains(byKeys(idx)),
          s"$sortCols rank $idx")
      for (q <- Seq(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)) {
        val idx = math.min(byKeys.length - 1, (q * byKeys.length).toInt)
        assert(QuantileSketch.quantileOf(s, sortCols, q).contains(byKeys(idx)), s"$sortCols q=$q")
      }
    }
  }

  test("keys decode missing values as NullCell and keep column types") {
    val sortCols = Seq(SortCol("x"), SortCol("s"), SortCol("l"), SortCol("d"))
    val b        = mixed.head
    val s        = QuantileSketch(sortCols, 700).summarize(b, LeafCtx(0, 1))
    assert(s.size == 700) // rate 1 and capacity ≥ rows: every row
    val expected = (0 until 700).map(i => RowKey.of(b, sortCols.map(_.name), i)).toSet
    assert(s.sample.map(_._2).toSet == expected)
    assert(s.sample.exists(_._2.cells.contains(NullCell)))
  }

  test("the summary survives a Java round trip unchanged") {
    val sortCols = mixedSorts(2)
    val s        = sketchAll(QuantileSketch(sortCols, 500, rate = 0.5), mixed, seed = 3)
    val in       = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(Serde.toBytes(s)))
    val back     = in.readObject().asInstanceOf[QuantileSummary]
    assert(back == s)
    assert(back.sample == s.sample)
    assert(back.capacity == s.capacity)
  }

  test("numeric columns serialize to at most 8·(columns + 1) + 16 bytes per sampled row") {
    val cols   = Seq("a", "b", "c", "d", "e")
    val rng    = new SplitMix(17)
    val blocks = (0 until 4).map { _ =>
      ColumnarBlock.of(5000, cols.map(c => c -> (DoubleColumn(Array.fill(5000)(rng.nextDouble())): Column)): _*)
    }
    for (k <- Seq(1, 5)) {
      val sortCols = cols.take(k).map(SortCol(_))
      val s        = sketchAll(QuantileSketch(sortCols, 2000, rate = 0.2), blocks)
      assert(s.size == 2000)
      val bytes = Serde.sizeOf(s)
      assert(bytes <= (8L * (k + 1) + 16) * s.size, s"$k columns: $bytes bytes for ${s.size} rows")
    }
  }

  test("at a Bernoulli rate over 8 blocks the rank bound holds and the sample is seed-deterministic") {
    val big  = randomDoubles(200000, seed = 23)
    val v    = 50
    val size = SampleSize.quantile(v).toInt
    val sk   = QuantileSketch(sort, size, rate = SampleSize.rate(size + 6 * math.sqrt(size).toLong, big.length))
    assert(sk.rate < 0.3)
    val blocks = splitBlocks(big, 8)
    val s      = sketchAll(sk, blocks, seed = 4)
    assert(s.size == size)
    val sorted = big.sorted
    for (q <- Seq(0.1, 0.25, 0.5, 0.75, 0.9)) {
      val got  = QuantileSketch.quantileOf(s, sort, q).get.cells.head.asInstanceOf[NumCell].v
      val rank = java.util.Arrays.binarySearch(sorted, got).toDouble / sorted.length
      assert(math.abs(rank - q) <= 1.0 / (2 * v), f"q=$q rank=$rank%.4f") // ε = 1/(2V)
    }
    assert(sketchAll(sk, blocks, seed = 4) == s)
    assert(sketchAll(sk, blocks, seed = 5) != s)
  }
}

class MisraGriesSpec extends AnyFunSuite {

  private val n    = 30000
  private val data = zipfStrings(n, 50, seed = 14)

  private def blocks(parts: Int) = {
    val size = (n + parts - 1) / parts
    (0 until parts).map(p => TestData.stringBlock("s", data.slice(p * size, math.min(n, (p + 1) * size))))
  }

  private def exactCounts: Map[String, Long] =
    data.groupBy(identity).view.mapValues(_.size.toLong).toMap

  test("with enough counters Misra-Gries is exact") {
    val got = sketchAll(MisraGriesSketch("s", 100), blocks(4))
    assert(got.counts == exactCounts)
  }

  test("undercount is bounded by n/(k+1)") {
    val k     = 10
    val got   = sketchAll(MisraGriesSketch("s", k), blocks(4))
    val exact = exactCounts
    got.counts.foreach { case (v, c) =>
      assert(c <= exact(v), s"$v overcounted")
      assert(exact(v) - c <= n.toLong / (k + 1) * 4, s"$v undercounted too much") // merged bound
    }
  }

  test("one block with more distinct values than k stays within n/(k+1) of its exact counts") {
    val k     = 10
    val exact = exactCounts
    val got   = MisraGriesSketch("s", k).summarize(TestData.stringBlock("s", data), LeafCtx(0, 0))
    assert(exact.size > k)
    assert(got.counts.size <= k)
    got.counts.foreach { case (v, c) =>
      assert(c <= exact(v), s"$v overcounted")
      assert(exact(v) - c <= n.toLong / (k + 1), s"$v undercounted by ${exact(v) - c}")
    }
    exact.foreach { case (v, c) => assert(c <= n.toLong / (k + 1) || got.counts.contains(v), s"$v dropped") }
  }

  test("the true heaviest element survives with few counters") {
    val got   = sketchAll(MisraGriesSketch("s", 8), blocks(4))
    val top   = exactCounts.maxBy(_._2)._1
    assert(got.counts.contains(top))
    assert(HeavyHitters.top(got, 1).head._1 == top)
  }

  test("counter count never exceeds k after merges") {
    val k   = 7
    val got = sketchAll(MisraGriesSketch("s", k), blocks(13))
    assert(got.counts.size <= k)
  }

  test("tracks total rows inspected") {
    assert(sketchAll(MisraGriesSketch("s", 10), blocks(3)).sampled == n.toLong)
  }
}

class SamplingHeavyHittersSpec extends AnyFunSuite {

  private val n = 100000
  // ~30% "big", ~15% "mid", rest spread over 1000 rare keys.
  private val data: Seq[String] = {
    val rng = new SplitMix(15)
    Seq.fill(n) {
      val r = rng.nextDouble()
      if (r < 0.30) "big" else if (r < 0.45) "mid" else s"rare${rng.nextInt(1000)}"
    }
  }

  private def blocks(parts: Int) = {
    val size = (n + parts - 1) / parts
    (0 until parts).map(p => TestData.stringBlock("s", data.slice(p * size, math.min(n, (p + 1) * size))))
  }

  test("finds all 1/K-frequent values and no 1/4K-rare ones (Theorem 4)") {
    val k    = 10
    val rate = SampleSize.rate(SampleSize.heavyHitters(k), n)
    val got  = sketchAll(SamplingHeavyHittersSketch("s", rate), blocks(8))
    val selected = HeavyHitters.select(got, k).map(_._1).toSet
    assert(selected.contains("big"))
    assert(selected.contains("mid"))
    assert(selected.forall(v => v == "big" || v == "mid"), s"false positives: $selected")
  }

  test("estimates scale by the sampling rate") {
    val rate = 0.1
    val got  = sketchAll(SamplingHeavyHittersSketch("s", rate), blocks(8))
    val est  = got.estimate("big")
    val exact = data.count(_ == "big")
    assert(math.abs(est - exact) < 5 * math.sqrt(exact / rate))
  }

  test("deterministic in seed") {
    val a = sketchAll(SamplingHeavyHittersSketch("s", 0.05), blocks(4), seed = 2)
    val b = sketchAll(SamplingHeavyHittersSketch("s", 0.05), blocks(4), seed = 2)
    assert(a.counts == b.counts)
  }

  test("rate 1 counts exactly") {
    val got = sketchAll(SamplingHeavyHittersSketch("s", 1.0), blocks(4))
    assert(got.estimate("big") == data.count(_ == "big").toDouble)
  }
}
