package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

/** Property-based checks of the mergeable-summary law (§4.1):
  * summarize(D1 ⊎ D2) == merge(summarize(D1), summarize(D2)) for exact
  * sketches, under arbitrary data and split points.
  */
class MergePropertiesSpec extends AnyFunSuite {

  /** Run a ScalaCheck property and fail the ScalaTest test on falsification. */
  private def check(prop: Prop): Unit = {
    val result = org.scalacheck.Test.check(
      org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(50), prop)
    assert(result.passed, result.status.toString)
  }

  private val dataGen: Gen[(List[Double], Int)] = for {
    xs    <- Gen.listOfN(200, Gen.choose(0.0, 100.0))
    split <- Gen.choose(0, xs.length)
  } yield (xs, split)

  private def halves(xs: List[Double], split: Int) = {
    val (a, b) = xs.splitAt(split)
    (TestData.doubleBlockNamed("x", a.toArray), TestData.doubleBlockNamed("x", b.toArray))
  }

  test("histogram summarize distributes over multiset union") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = StreamingHistogramSketch("x", NumericBuckets(0, 100, 13))
      val (b1, b2) = halves(xs, split)
      val merged = sk.merge(sk.summarize(b1, LeafCtx(0, 0)), sk.summarize(b2, LeafCtx(1, 0)))
      val whole  = sk.summarize(TestData.doubleBlockNamed("x", xs.toArray), LeafCtx(0, 0))
      merged.counts.toSeq == whole.counts.toSeq
    })
  }

  test("moments summarize distributes over multiset union") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = MomentsSketch("x")
      val (b1, b2) = halves(xs, split)
      val m = sk.merge(sk.summarize(b1, LeafCtx(0, 0)), sk.summarize(b2, LeafCtx(1, 0)))
      val w = sk.summarize(TestData.doubleBlockNamed("x", xs.toArray), LeafCtx(0, 0))
      m.count == w.count && m.min == w.min && m.max == w.max &&
        math.abs(m.sum - w.sum) < 1e-6
    })
  }

  test("next-items summarize distributes over multiset union") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = NextItemsSketch(Seq(SortCol("x")), 10)
      val (b1, b2) = halves(xs, split)
      val m = sk.merge(sk.summarize(b1, LeafCtx(0, 0)), sk.summarize(b2, LeafCtx(1, 0)))
      val w = sk.summarize(TestData.doubleBlockNamed("x", xs.toArray), LeafCtx(0, 0))
      m == w
    })
  }

  test("hll merge is union (register max)") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = HllSketch("x")
      val (b1, b2) = halves(xs, split)
      val m = sk.merge(sk.summarize(b1, LeafCtx(0, 0)), sk.summarize(b2, LeafCtx(1, 0)))
      val w = sk.summarize(TestData.doubleBlockNamed("x", xs.toArray), LeafCtx(0, 0))
      m.registers.toSeq == w.registers.toSeq
    })
  }

  test("merge is associative for histograms") {
    val tripleGen = Gen.listOfN(3, Gen.listOfN(60, Gen.choose(0.0, 100.0)))
    check(Prop.forAll(tripleGen) { parts =>
      val sk = StreamingHistogramSketch("x", NumericBuckets(0, 100, 7))
      val ss = parts.zipWithIndex.map { case (p, i) =>
        sk.summarize(TestData.doubleBlockNamed("x", p.toArray), LeafCtx(i, 0)) }
      val left  = sk.merge(sk.merge(ss(0), ss(1)), ss(2))
      val right = sk.merge(ss(0), sk.merge(ss(1), ss(2)))
      left.counts.toSeq == right.counts.toSeq
    })
  }

  test("quantile bottom-k merge is order-insensitive") {
    check(Prop.forAll(dataGen) { case (xs, split) =>
      val sk = QuantileSketch(Seq(SortCol("x")), 20)
      val (b1, b2) = halves(xs, split)
      val s1 = sk.summarize(b1, LeafCtx(0, 0))
      val s2 = sk.summarize(b2, LeafCtx(1, 0))
      sk.merge(s1, s2).sample == sk.merge(s2, s1).sample
    })
  }

  test("sampled columnar quantile summary: merge is the bottom-k union, quantileOf the RowKey sort") {
    val gen = for {
      xs    <- Gen.listOfN(200, Gen.frequency(1 -> Gen.const(Double.NaN), 6 -> Gen.choose(0, 9).map(_.toDouble)))
      ss    <- Gen.listOfN(200, Gen.frequency(1 -> Gen.const(null: String), 6 -> Gen.oneOf("a", "b", "c")))
      split <- Gen.choose(0, 200)
      desc  <- Gen.oneOf(true, false)
      q     <- Gen.choose(0.0, 1.0)
    } yield (xs.toArray, ss, split, desc, q)
    check(Prop.forAll(gen) { case (xs, ss, split, desc, q) =>
      val sortCols = Seq(SortCol("s", ascending = !desc), SortCol("x", ascending = desc))
      val sk = QuantileSketch(sortCols, 40, rate = 0.5)
      def block(from: Int, until: Int) = {
        val b = TestData.stringBlock("s", ss.slice(from, until))
        b.copy(columns = b.columns + ("x" -> repro.storage.DoubleColumn(xs.slice(from, until))))
      }
      val s1 = sk.summarize(block(0, split), LeafCtx(0, 7))
      val s2 = sk.summarize(block(split, 200), LeafCtx(1, 7))
      val m  = sk.merge(s1, s2)
      val byKeys = m.sample.map(_._2).sorted(RowKey.ordering(sortCols))
      m.sample == (s1.sample ++ s2.sample).sortBy(_._1).take(40) &&
        QuantileSketch.quantileOf(m, sortCols, q) ==
          byKeys.lift(math.min(byKeys.length - 1, (q * byKeys.length).toInt))
    })
  }
}
