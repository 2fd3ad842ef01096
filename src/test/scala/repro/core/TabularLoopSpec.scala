package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData.drain
import repro.storage._
import scala.jdk.CollectionConverters._

/** The batch loops of the sketches against references: next items and find
  * text against a brute-force sort of every member row; HLL, heavy hitters,
  * string buckets, PCA, quantile, save-table output and derived columns
  * against the row-at-a-time loops they replaced. Blocks mix ties,
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
    drain(b.batches).map(i => RowKey.of(b, sort.map(_.name), i))

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

  private val finds = Seq(
    ("s", "den", ExactMatch),    // dictionary column, one entry
    ("s", "a", SubstringMatch),  // dictionary column, several entries
    ("l", "^-", RegexMatch))     // numeric column, matched as text

  test("find text equals a brute-force search for every sort, start and membership") {
    check(Prop.forAll(caseGen) { case (n, seed) =>
      val rng = new SplitMix(seed + 2)
      val bad = for {
        b                    <- blocks(n, seed)
        (col, pattern, mode) <- finds
        re                    = java.util.regex.Pattern.compile(
                                  if (mode == ExactMatch) s"^$pattern$$" else pattern,
                                  java.util.regex.Pattern.CASE_INSENSITIVE)
        hitRows               = drain(b.batches).filter { i =>
                                  val v = b.column(col).asString(i)
                                  v != null && re.matcher(v).find()
                                }
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

  /** Rows [from, until) of `c` as a column of its own kind. */
  private def slice(c: Column, from: Int, until: Int): Column = {
    val rows  = from until until
    val nulls = new java.util.BitSet(rows.length)
    rows.foreach(i => if (c.isMissing(i)) nulls.set(i - from))
    def present(i: Int): Double = if (c.isMissing(i)) 0.0 else c.asDouble(i)
    c match {
      case _: DoubleColumn => DoubleColumn(rows.map(c.asDouble).toArray)
      case _: LongColumn   => LongColumn(rows.map(present(_).toLong).toArray, nulls)
      case _: DateColumn   => DateColumn(rows.map(present(_).toInt).toArray, nulls)
      case s: StringColumn => StringColumn(s.dict, rows.map(i => Option(c.asString(i)).fold(-1)(s.dict.indexOf(_))).toArray)
    }
  }

  test("next items and find text merge per-block summaries to the whole block's for every sort, start and K") {
    val splitGen = for {
      (n, seed) <- caseGen
      parts     <- Gen.choose(2, 3)
      cuts      <- Gen.listOfN(parts - 1, Gen.choose(0, n))
    } yield (n, seed, (0 +: cuts.sorted :+ n).toVector)
    check(Prop.forAll(splitGen) { case (n, seed, cuts) =>
      val rng   = new SplitMix(seed + 3)
      val cols  = columns(n, seed)
      val whole = ColumnarBlock(cols, n, MembershipSet.full(n))
      val parts = cuts.zip(cuts.tail).map { case (from, until) =>
        ColumnarBlock(cols.map { case (name, c) => name -> slice(c, from, until) }, until - from,
          MembershipSet.full(until - from))
      }
      def merged[S](sk: Sketch[S]): S =
        parts.zipWithIndex.map { case (b, i) => sk.summarize(b, LeafCtx(i, 0)) }.foldLeft(sk.zero)(sk.merge)
      val bad = for {
        sort  <- sorts
        ord    = RowKey.ordering(sort)
        keys   = memberKeys(whole, sort)
        start <- if (keys.isEmpty) Seq(None, Some(RowKey(Vector(NullCell)))) else starts(keys, rng)
        next   = Seq(1, 3, 1000).map(k => NextItemsSketch(sort, k, start))
        find   = finds.map { case (col, pattern, mode) => FindTextSketch(col, pattern, mode, caseSensitive = false, sort, start) }
        msg   <- next.flatMap { sk =>
                   val (got, want) = (merged(sk).rows, sk.summarize(whole, LeafCtx(0, 0)).rows)
                   if (same(got, want, ord)) None else Some(s"next items k=${sk.k}: got $got, want $want")
                 } ++ find.flatMap { sk =>
                   val (got, want) = (merged(sk), sk.summarize(whole, LeafCtx(0, 0)))
                   if (got.matches == want.matches && same(got.firstMatch.map((_, 0L)).toSeq,
                                                           want.firstMatch.map((_, 0L)).toSeq, ord)) None
                   else Some(s"find text ${sk.col}/${sk.pattern}: got $got, want $want")
                 }
      } yield s"n=$n cuts=$cuts sort=$sort start=$start: $msg"
      bad.headOption.forall(msg => { info(msg); false })
    })
  }

  /** The row-at-a-time HLL loop the batch loop replaced. */
  private def referenceRegisters(block: ColumnarBlock, col: String, p: Int): Array[Byte] = {
    val regs  = new Array[Byte](1 << p)
    val c     = block.column(col)
    val isStr = c.isInstanceOf[StringColumn]
    drain(block.batches).foreach { i =>
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

  private val Rates = Seq(1.0, 0.3)
  private val Cols  = Seq("x", "l", "d", "s")

  /** Whether `check` finds nothing wrong under every membership of the
    * block; the first failure is logged.
    */
  private def firstFailure(n: Int, seed: Long)(check: ColumnarBlock => Seq[String]): Boolean =
    blocks(n, seed).flatMap(check).headOption.forall(msg => { info(msg); false })

  /** Present values of `col` over `rows`, counted a row at a time. */
  private def referenceCounts(b: ColumnarBlock, col: String, rows: Seq[Int]): Map[String, Long] = {
    val counts = collection.mutable.LinkedHashMap.empty[String, Long]
    rows.foreach { i =>
      val v = b.column(col).asString(i)
      if (v != null) counts(v) = counts.getOrElse(v, 0L) + 1
    }
    counts.toMap
  }

  /** The row-at-a-time string-buckets loop the per-value pass replaced. */
  private def referenceBuckets(b: ColumnarBlock, col: String, k: Int, maxExact: Int): StringBucketsSummary = {
    val heap     = new java.util.TreeMap[Long, String]()
    val exact    = new java.util.HashSet[String]()
    var overflow = false
    drain(b.batches).foreach { i =>
      val v = b.column(col).asString(i)
      if (v != null) {
        if (!overflow) { exact.add(v); if (exact.size > maxExact) overflow = true }
        val h = SplitMix.hashString(v)
        if (heap.size < k || h < heap.lastKey) { heap.put(h, v); if (heap.size > k) heap.pollLastEntry() }
      }
    }
    val bottomK = Vector.newBuilder[(Long, String)]
    heap.forEach((h, v) => bottomK += ((h, v)))
    val set = Set.newBuilder[String]
    if (!overflow) exact.forEach(v => set += v)
    StringBucketsSummary(bottomK.result(), set.result(), overflow, k, maxExact)
  }

  test("heavy hitters and string buckets equal row-at-a-time counts for every column kind, membership and rate") {
    check(Prop.forAll(caseGen) { case (n, seed) =>
      firstFailure(n, seed) { b =>
        val members = drain(b.batches)
        val ctx     = LeafCtx(7, seed)
        Cols.flatMap { col =>
          val exact    = referenceCounts(b, col, members)
          val sampled  = Rates.flatMap { rate =>
            val rows = drain(b.batches(rate, ctx.rng))
            val want = HeavyHittersSummary(referenceCounts(b, col, rows), rows.size.toLong, rate)
            val got  = SamplingHeavyHittersSketch(col, rate).summarize(b, ctx)
            if (got == want) None else Some(s"sampled heavy hitters rate=$rate: got $got, want $want")
          }
          val complete = MisraGriesSketch(col, 100).summarize(b, ctx)
          val mg       = if (complete == HeavyHittersSummary(exact, members.size.toLong, 1.0)) None
                         else Some(s"Misra-Gries with k=100: got $complete, want $exact")
          val trimmed  = MisraGriesSketch(col, 2).summarize(b, ctx)
          val bound    = if (trimmed.counts.size <= 2 && trimmed.counts.forall { case (v, c) =>
                           c <= exact.getOrElse(v, 0L) && exact(v) - c <= members.size / 3 }) None
                         else Some(s"Misra-Gries with k=2: $trimmed outside the bound of $exact")
          val buckets  = Seq((5000, 50), (3, 2)).flatMap { case (k, maxExact) =>
            val got  = StringBucketsSketch(col, k, maxExact).summarize(b, ctx)
            val want = referenceBuckets(b, col, k, maxExact)
            if (got == want) None else Some(s"string buckets k=$k maxExact=$maxExact: got $got, want $want")
          }
          (sampled ++ mg ++ bound ++ buckets).map(m => s"n=$n members=${b.rowCount} col=$col: $m")
        }
      }
    })
  }

  test("PCA, quantile, save-table output and derived columns equal row-at-a-time loops for every membership and rate") {
    val dir = java.nio.file.Files.createTempDirectory("repro-loop")
    try check(Prop.forAll(caseGen) { case (n, seed) =>
      firstFailure(n, seed) { b =>
        val ctx  = LeafCtx(5, seed)
        val rows = Rates.map(rate => rate -> drain(b.batches(rate, ctx.rng))).toMap

        val pca = Rates.flatMap { rate =>
          val cols  = Seq("x", "l", "d")
          val sums  = new Array[Double](3)
          val cross = new Array[Double](9)
          var m     = 0L
          rows(rate).foreach { i =>
            val x = cols.map(b.column(_).asDouble(i))
            if (!x.exists(_.isNaN)) {
              m += 1
              for (j <- 0 until 3) { sums(j) += x(j); for (l <- j until 3) cross(j * 3 + l) += x(j) * x(l) }
            }
          }
          val got = PcaSketch(cols, rate).summarize(b, ctx)
          if (got.n == m && java.util.Arrays.equals(got.sums, sums) && java.util.Arrays.equals(got.cross, cross)) None
          else Some(s"PCA rate=$rate: got n=${got.n} ${got.sums.toSeq}, want n=$m ${sums.toSeq}")
        }

        val sort = Seq(SortCol("x"), SortCol("s", ascending = false), SortCol("d"))
        val quantile = for {
          rate <- Rates
          size <- Seq(5, 1000)
          base  = SplitMix.mix(ctx.seed, ctx.blockId)
          kept  = rows(rate).map(i => (SplitMix.mix(base, i.toLong), i)).sortBy(_._1).take(size)
          want  = new QuantileSummary(kept.map(_._1).toArray, sort.map(sc => b.column(sc.name) match {
                    case c: StringColumn => kept.map(k => c.asString(k._2)).toArray: AnyRef
                    case c               => kept.map(k => c.asDouble(k._2)).toArray: AnyRef
                  }).toArray, size)
          got   = QuantileSketch(sort, size, rate).summarize(b, ctx)
          if got != want
        } yield s"quantile rate=$rate n=$size: got ${got.sample}, want ${want.sample}"

        val saved = SaveTableSketch(dir.toString, Cols).summarize(b, ctx)
        val lines = java.nio.file.Files.readAllLines(dir.resolve(f"part-${ctx.blockId}%06d.csv"))
        val text  = Cols.mkString(",") +: rows(1.0).map(i => Cols.map(c => Option(b.column(c).asString(i)).getOrElse("")).mkString(","))
        val save  = if (saved == SaveSummary(1, rows(1.0).size.toLong, Vector.empty) && lines.asScala == text) None
                    else Some(s"save-table: got $saved, ${lines.size} lines, want ${text.size}")

        val fn      = (blk: ColumnarBlock, i: Int) => blk.column("x").asDouble(i) * 2 + blk.column("l").asDouble(i)
        val derived = b.withDerived("y", fn).column("y")
        val ref     = Array.fill(n)(Double.NaN)
        rows(1.0).foreach(i => ref(i) = fn(b, i))
        val derive  = (0 until n).find(i => java.lang.Double.compare(derived.asDouble(i), ref(i)) != 0)
                        .map(i => s"withDerived row $i: got ${derived.asDouble(i)}, want ${ref(i)}")

        (pca ++ quantile ++ save ++ derive).map(m => s"n=$n members=${b.rowCount}: $m")
      }
    })
    finally {
      java.nio.file.Files.list(dir).forEach(f => java.nio.file.Files.delete(f))
      java.nio.file.Files.delete(dir)
    }
  }
}
