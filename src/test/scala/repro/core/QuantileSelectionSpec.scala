package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

/** The root side of the quantile sketch against references kept here:
  * `quantileOf` against a full `RowKey.ordering` sort of the sampled keys,
  * at every rank, and `merge` against a stable sort of both summaries'
  * rows by priority. Summaries hold 1–3,000 rows over one to three columns
  * whose values tie often and mix NaN, ±0.0, ±∞, and strings with nulls,
  * under sorts in both directions; priorities tie within and across
  * summaries.
  */
class QuantileSelectionSpec extends AnyFunSuite {

  private def check(prop: Prop): Unit = {
    val result = org.scalacheck.Test.check(
      org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(30), prop)
    assert(result.passed, result.status.toString)
  }

  private val Xs   = Array(Double.NegativeInfinity, -2.5, -0.0, 0.0, 1.0, 2.5, 7.0, Double.PositiveInfinity, Double.NaN)
  private val Dict = Array("ATL", "BOS", "DEN", "JFK", "SFO", "aa", null)

  /** A column kind: doubles over `Xs` (ties), doubles over a wide range
    * (few ties, some NaN), or strings over `Dict` (nulls).
    */
  private sealed trait Kind
  private case object Tied extends Kind
  private case object Wide extends Kind
  private case object Text extends Kind

  private def column(kind: Kind, n: Int, rng: SplitMix): AnyRef = kind match {
    case Tied => Array.fill(n)(Xs(rng.nextInt(Xs.length)))
    case Wide => Array.fill(n)(if (rng.nextInt(20) == 0) Double.NaN else rng.nextInt(2000001) / 8.0 - 125000)
    case Text => Array.fill(n)(Dict(rng.nextInt(Dict.length)))
  }

  /** `n` sampled rows with ascending priorities from a range narrow enough
    * that some tie.
    */
  private def summary(n: Int, kinds: Seq[Kind], capacity: Int, rng: SplitMix): QuantileSummary =
    new QuantileSummary(Array.fill(n)(rng.nextInt(2 * n + 1).toLong - n).sorted,
      kinds.map(column(_, n, rng)).toArray, capacity)

  private val sortGen: Gen[Seq[(Kind, Boolean)]] = for {
    k    <- Gen.choose(1, 3)
    cols <- Gen.listOfN(k, Gen.zip(Gen.oneOf(Tied, Wide, Text), Gen.oneOf(true, false)))
  } yield cols

  private def sortCols(cols: Seq[(Kind, Boolean)]): Seq[SortCol] =
    cols.indices.map(j => SortCol(s"c$j", cols(j)._2))

  /** Equal keys under the sort, which tells −0.0 from 0.0 where `==` on
    * `NumCell` does not.
    */
  private def same(a: RowKey, b: RowKey, ord: Ordering[RowKey]): Boolean = a == b && ord.compare(a, b) == 0

  test("quantileOf equals a full RowKey.ordering sort at every rank") {
    val gen = for {
      n    <- Gen.oneOf(Gen.choose(1, 40), Gen.choose(1, 3000))
      cols <- sortGen
      seed <- Gen.choose(0L, 1L << 40)
    } yield (n, cols, seed)
    check(Prop.forAll(gen) { case (n, cols, seed) =>
      val sort   = sortCols(cols)
      val ord    = RowKey.ordering(sort)
      val s      = summary(n, cols.map(_._1), n, new SplitMix(seed))
      val byKeys = (0 until n).map(s.key).sorted(ord)
      val ranks  = (0 until n).forall { idx =>
        QuantileSketch.quantileOf(s, sort, (idx + 0.5) / n).exists(same(_, byKeys(idx), ord))
      }
      val ends = Seq(-1.0 -> 0, 0.0 -> 0, 1.0 -> (n - 1), 2.0 -> (n - 1)).forall { case (q, idx) =>
        QuantileSketch.quantileOf(s, sort, q).exists(same(_, byKeys(idx), ord))
      }
      Prop(ranks && ends) :| s"n=$n sort=$cols"
    })
  }

  /** The bottom-`capacity` rows of both summaries by priority, `a`'s first
    * on ties, each with its cells.
    */
  private def referenceMerge(a: QuantileSummary, b: QuantileSummary): QuantileSummary = {
    val cap  = math.max(a.capacity, b.capacity)
    val rows = ((0 until a.size).map(i => (a.priorities(i), 0, i)) ++ (0 until b.size).map(j => (b.priorities(j), 1, j)))
      .sortBy(r => (r._1, r._2)).take(cap)
    val layout = if (a.size > 0) a.columns else b.columns
    val columns = layout.indices.map { c =>
      def from(side: Int): QuantileSummary = if (side == 0) a else b
      layout(c) match {
        case _: Array[Double] =>
          rows.map { case (_, side, i) => from(side).columns(c).asInstanceOf[Array[Double]](i) }.toArray: AnyRef
        case _: Array[String] =>
          rows.map { case (_, side, i) => from(side).columns(c).asInstanceOf[Array[String]](i) }.toArray: AnyRef
      }
    }
    new QuantileSummary(rows.map(_._1).toArray, columns.toArray, cap)
  }

  test("merge equals a stable merge of both summaries' rows by priority") {
    val sizes = Gen.oneOf(Gen.const(0), Gen.choose(1, 40), Gen.choose(1, 3000))
    val gen = for {
      na   <- sizes
      nb   <- sizes
      ca   <- Gen.choose(math.max(na, 1), 3000)
      cb   <- Gen.choose(math.max(nb, 1), 3000)
      cols <- sortGen
      seed <- Gen.choose(0L, 1L << 40)
    } yield (na, nb, ca, cb, cols, seed)
    check(Prop.forAll(gen) { case (na, nb, ca, cb, cols, seed) =>
      val rng  = new SplitMix(seed)
      val sk   = QuantileSketch(sortCols(cols), math.max(ca, cb))
      val a    = if (na == 0) QuantileSummary.empty(ca) else summary(na, cols.map(_._1), ca, rng)
      val b    = if (nb == 0) QuantileSummary.empty(cb) else summary(nb, cols.map(_._1), cb, rng)
      val got  = sk.merge(a, b)
      val want = referenceMerge(a, b)
      val ok   = if (na + nb == 0) got.size == 0 && got.capacity == want.capacity else got == want
      Prop(ok) :| s"na=$na nb=$nb ca=$ca cb=$cb sort=$cols: got ${got.sample.take(5)}, want ${want.sample.take(5)}"
    })
  }
}
