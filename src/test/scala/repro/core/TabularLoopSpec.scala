package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.storage._

/** The batch loops of the tabular sketches against references: next items
  * and find text against a brute-force sort of every member row, HLL
  * registers against the row-at-a-time loop it replaced. Blocks mix ties,
  * missing values, ±∞ and −0.0 next to 0.0 in every numeric column, under
  * full, dense and sparse membership; sorts are led by each column kind in
  * both directions; starts lie before, on and after the data, and include
  * missing, string and NaN first cells.
  */
class TabularLoopSpec extends AnyFunSuite {

  private def check(prop: Prop): Unit = {
    val result = org.scalacheck.Test.check(
      org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(20), prop)
    assert(result.passed, result.status.toString)
  }

  private val Dict = Array("ATL", "BOS", "DEN", "JFK", "SFO", "aa")
  private val Xs   = Array(Double.NegativeInfinity, -2.5, -0.0, 0.0, 1.0, 2.5, 7.0, Double.PositiveInfinity, Double.NaN)

  private def nulls(n: Int, rng: SplitMix): java.util.BitSet = {
    val b = new java.util.BitSet(n)
    (0 until n).foreach(i => if (rng.nextInt(8) == 0) b.set(i))
    b
  }

  /** Columns "x" (doubles), "l" (longs), "d" (dates) and "s" (strings), each
    * over a handful of values so that sort keys tie, with missing cells.
    */
  private def columns(n: Int, seed: Long): Map[String, Column] = {
    val rng = new SplitMix(seed)
    Map(
      "x" -> DoubleColumn(Array.fill(n)(Xs(rng.nextInt(Xs.length)))),
      "l" -> LongColumn(Array.fill(n)(rng.nextInt(5).toLong - 2), nulls(n, rng)),
      "d" -> DateColumn(Array.fill(n)(18000 + rng.nextInt(4)), nulls(n, rng)),
      "s" -> StringColumn(Dict, Array.fill(n)(rng.nextInt(Dict.length + 1) - 1)))
  }

  /** The block under full, dense and sparse membership. */
  private def blocks(n: Int, seed: Long): Seq[ColumnarBlock] = {
    val rng   = new SplitMix(seed ^ 0x5eedL)
    val words = new Array[Long]((n + 63) / 64)
    (0 until n).foreach(i => if (rng.nextInt(10) < 6) words(i >>> 6) |= 1L << i)
    val sparse = (0 until n).filter(_ => rng.nextInt(10) == 0).toArray
    val cols   = columns(n, seed)
    Seq(MembershipSet.full(n), new DenseMembership(n, words), new SparseMembership(n, sparse))
      .map(m => ColumnarBlock(cols, n, m))
  }

  private val caseGen = for {
    n    <- Gen.oneOf(Gen.choose(0, 60), Gen.choose(RowBatches.Capacity - 2, RowBatches.Capacity + 700))
    seed <- Gen.choose(0L, 1L << 40)
  } yield (n, seed)

  /** Sorts led by a double, long, date and string column, single and
    * multi-column, in both directions of the first column.
    */
  private val sorts: Seq[Seq[SortCol]] = for {
    asc  <- Seq(true, false)
    sort <- Seq(
      Seq(SortCol("x", asc)),
      Seq(SortCol("x", asc), SortCol("s"), SortCol("l", ascending = false)),
      Seq(SortCol("l", asc), SortCol("x")),
      Seq(SortCol("d", asc), SortCol("s", ascending = false)),
      Seq(SortCol("s", asc), SortCol("x")),
      Seq(SortCol("s", asc)))
  } yield sort

  private val firstCells: Seq[KeyCell] = Seq(
    NumCell(Double.NegativeInfinity), NumCell(-1e300), NumCell(-2.5), NumCell(-0.0), NumCell(0.0),
    NumCell(1.0), NumCell(18001), NumCell(1e300), NumCell(Double.PositiveInfinity), NumCell(Double.NaN),
    NullCell, StrCell("DEN"), StrCell("~"))

  /** No start; member keys (on the data); a member key and a one-cell key
    * with each special first cell (before, between and after the data).
    */
  private def starts(keys: IndexedSeq[RowKey], rng: SplitMix): Seq[Option[RowKey]] = {
    val onData = Seq.fill(3)(keys(rng.nextInt(keys.length)))
    val other  = firstCells.flatMap { c =>
      val base = keys(rng.nextInt(keys.length))
      Seq(RowKey(c +: base.cells.tail), RowKey(Vector(c)))
    }
    None +: (onData ++ other).map(Some(_))
  }

  private def memberKeys(b: ColumnarBlock, sort: Seq[SortCol]): IndexedSeq[RowKey] =
    b.membership.iterator.map(i => RowKey.of(b, sort.map(_.name), i)).toIndexedSeq

  /** Distinct keys in sort order with their counts; keys equal under the
    * ordering (not under `==`, which merges −0.0 and 0.0) form one group.
    */
  private def grouped(keys: IndexedSeq[RowKey], ord: Ordering[RowKey]): Vector[(RowKey, Long)] = {
    val out = Vector.newBuilder[(RowKey, Long)]
    val it  = keys.sorted(ord).iterator.buffered
    while (it.hasNext) {
      val k = it.next()
      var c = 1L
      while (it.hasNext && ord.compare(it.head, k) == 0) { it.next(); c += 1 }
      out += ((k, c))
    }
    out.result()
  }

  private def same(a: Seq[(RowKey, Long)], b: Seq[(RowKey, Long)], ord: Ordering[RowKey]): Boolean =
    a.length == b.length && a.zip(b).forall { case ((ka, ca), (kb, cb)) => ord.compare(ka, kb) == 0 && ca == cb }

  test("next items equal a brute-force sort for every sort, start, K and membership") {
    check(Prop.forAll(caseGen) { case (n, seed) =>
      val rng = new SplitMix(seed + 1)
      val bad = for {
        b     <- blocks(n, seed)
        sort  <- sorts
        ord    = RowKey.ordering(sort)
        keys   = memberKeys(b, sort)
        all    = grouped(keys, ord)
        start <- if (keys.isEmpty) Seq(None, Some(RowKey(Vector(NullCell)))) else starts(keys, rng)
        k     <- Seq(1, 3, 1000)
        want   = all.filter { case (key, _) => start.forall(s => ord.compare(key, s) > 0) }.take(k)
        got    = NextItemsSketch(sort, k, start).summarize(b, LeafCtx(0, 0)).rows
        if !same(got, want, ord)
      } yield s"n=$n members=${b.rowCount} sort=$sort k=$k start=$start: got $got, want $want"
      bad.headOption.forall(msg => { info(msg); false })
    })
  }

  test("find text equals a brute-force search for every sort, start and membership") {
    val finds = Seq(
      ("s", "den", ExactMatch),    // dictionary column, one entry
      ("s", "a", SubstringMatch),  // dictionary column, several entries
      ("l", "^-", RegexMatch))     // numeric column, matched as text
    check(Prop.forAll(caseGen) { case (n, seed) =>
      val rng = new SplitMix(seed + 2)
      val bad = for {
        b                    <- blocks(n, seed)
        (col, pattern, mode) <- finds
        re                    = java.util.regex.Pattern.compile(
                                  if (mode == ExactMatch) s"^$pattern$$" else pattern,
                                  java.util.regex.Pattern.CASE_INSENSITIVE)
        hitRows               = b.membership.iterator.filter { i =>
                                  val v = b.column(col).asString(i)
                                  v != null && re.matcher(v).find()
                                }.toIndexedSeq
        sort                 <- sorts
        ord                   = RowKey.ordering(sort)
        hits                  = hitRows.map(i => RowKey.of(b, sort.map(_.name), i))
        keys                  = memberKeys(b, sort)
        start                <- if (keys.isEmpty) Seq(None) else starts(keys, rng)
        want                  = hits.filter(h => start.forall(s => ord.compare(h, s) > 0)).sorted(ord).headOption
        got                   = FindTextSketch(col, pattern, mode, caseSensitive = false, sort, start)
                                  .summarize(b, LeafCtx(0, 0))
        if got.matches != hits.length ||
           got.firstMatch.map(_.cells.length) != want.map(_.cells.length) ||
           got.firstMatch.zip(want).exists { case (g, w) => ord.compare(g, w) != 0 }
      } yield s"n=$n members=${b.rowCount} find=$col/$pattern sort=$sort start=$start: " +
        s"got $got, want ${hits.length} matches, first $want"
      bad.headOption.forall(msg => { info(msg); false })
    })
  }

  /** The row-at-a-time HLL loop the batch loop replaced. */
  private def referenceRegisters(block: ColumnarBlock, col: String, p: Int): Array[Byte] = {
    val regs  = new Array[Byte](1 << p)
    val c     = block.column(col)
    val isStr = c.isInstanceOf[StringColumn]
    block.foreachRow { i =>
      if (!c.isMissing(i)) {
        val h =
          if (isStr) SplitMix.hashString(c.asString(i))
          else SplitMix.mix(java.lang.Double.doubleToLongBits(c.asDouble(i)), 0x9E1L)
        val idx  = (h >>> (64 - p)).toInt
        val rest = h << p
        val rank = (if (rest == 0L) 64 - p else java.lang.Long.numberOfLeadingZeros(rest)) + 1
        if (rank > regs(idx)) regs(idx) = rank.toByte
      }
    }
    regs
  }

  test("HLL registers equal the row-at-a-time loop for every column kind and membership") {
    check(Prop.forAll(caseGen) { case (n, seed) =>
      val bad = for {
        b   <- blocks(n, seed)
        col <- Seq("x", "l", "d", "s")
        p   <- Seq(4, 12)
        if !java.util.Arrays.equals(HllSketch(col, p).summarize(b, LeafCtx(0, 0)).registers,
                                    referenceRegisters(b, col, p))
      } yield s"n=$n members=${b.rowCount} col=$col p=$p"
      bad.headOption.forall(msg => { info(msg); false })
    })
  }
}
