package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.storage._

/** `BucketSpec.bind(column).fill` against the row-at-a-time reference
  * (-2 when the cell is missing, else `indexOf(column, i)`), for every
  * pairing of bucket spec and column type over full, dense and sparse
  * membership; and the chart sketches built on it against brute-force
  * counts over the rows that full and filtered blocks visit, exact and
  * sampled.
  */
class BoundBucketsSpec extends AnyFunSuite {

  private def check(prop: Prop): Unit = {
    val result = org.scalacheck.Test.check(
      org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(30), prop)
    assert(result.passed, result.status.toString)
  }

  private val Dict = Array("ATL", "BOS", "DEN", "JFK", "LAX", "ORD", "SFO", "SJC", "aa", "zz")

  private def nulls(n: Int, rng: SplitMix): java.util.BitSet = {
    val b = new java.util.BitSet(n)
    (0 until n).foreach(i => if (rng.nextInt(6) == 0) b.set(i))
    b
  }

  /** A column of `n` cells of the given kind; numeric values lie on a grid
    * around [0, 20] so they hit both ends of the numeric buckets. Kind 0
    * (half steps, code span 146) is a scaled double column in blocks of
    * 16 × 147 rows or more and a raw one in smaller blocks; kind 5 (the
    * grid plus full-precision noise) is always raw.
    */
  private def column(kind: Int, n: Int, seed: Long): Column = {
    val rng = new SplitMix(seed)
    def grid(): Int = rng.nextInt(30) - 5
    kind match {
      case 0 => DoubleColumn(Array.fill(n)(if (rng.nextInt(6) == 0) Double.NaN else grid() * 0.5))
      case 1 => LongColumn(Array.fill(n)(grid().toLong), null)
      case 2 => LongColumn(Array.fill(n)(grid().toLong), nulls(n, rng))
      case 3 => DateColumn(Array.fill(n)(grid()), nulls(n, rng))
      case 4 => StringColumn(Dict, Array.fill(n)(rng.nextInt(Dict.length + 2) - 2 max -1))
      case _ => DoubleColumn(Array.fill(n)(if (rng.nextInt(6) == 0) Double.NaN else grid() + rng.nextDouble() * 0.1))
    }
  }

  private val specs: Seq[BucketSpec] = Seq(
    NumericBuckets(0, 20, 7),
    NumericBuckets(-3, 9, 1),
    StringBoundaryBuckets(Array("B", "JFK", "P", "a")),
    StringBoundaryBuckets(Array("0", "5")),
    ExactStringBuckets(Array("BOS", "SFO", "zz", "MIA", "1")))

  /** Full, dense and sparse membership over `n` rows. */
  private def memberships(n: Int, seed: Long): Seq[MembershipSet] = {
    val rng   = new SplitMix(seed)
    val words = new Array[Long]((n + 63) / 64)
    (0 until n).foreach(i => if (rng.nextInt(10) < 6) words(i >>> 6) |= 1L << i)
    val sparse = (0 until n).filter(_ => rng.nextInt(10) == 0).toArray
    Seq(MembershipSet.full(n), new DenseMembership(n, words), new SparseMembership(n, sparse))
  }

  private val caseGen = for {
    n    <- Gen.oneOf(Gen.choose(0, 200), Gen.choose(RowBatches.Capacity - 2, 2 * RowBatches.Capacity + 3))
    seed <- Gen.choose(0L, 1L << 40)
  } yield (n, seed)

  test("fill equals the row-at-a-time reference for every pairing and membership") {
    check(Prop.forAll(caseGen) { case (n, seed) =>
      val checks = for {
        kind <- 0 to 5
        c     = column(kind, n, seed + kind)
        spec <- specs
        m    <- memberships(n, seed)
      } yield {
        val block = ColumnarBlock(Map("c" -> c), n, m)
        val bound = spec.bind(block.column("c"))
        val out   = new Array[Int](RowBatches.Capacity)
        val rb    = block.batches
        var ok    = true
        while (rb.next()) {
          bound.fill(rb.rows, rb.size, out)
          (0 until rb.size).foreach { k =>
            val i   = rb.rows(k)
            val ref = if (c.isMissing(i)) BoundBuckets.Missing else spec.indexOf(c, i)
            if (out(k) != ref) ok = false
          }
        }
        ok
      }
      checks.forall(identity)
    })
  }

  test("every spec and column kind pairing is exercised, with all three outcomes") {
    val n = 3000
    for (spec <- Seq(specs.head, specs.last); kind <- Seq(0, 2, 3, 4, 5)) {
      val c   = column(kind, n, kind)
      val out = new Array[Int](n)
      spec.bind(c).fill(Array.range(0, n), n, out)
      val seen = out.map(b => if (b >= 0) 0 else b).toSet
      val want = if (spec.isInstanceOf[NumericBuckets] == (kind != 4)) Set(-2, -1, 0) else Set(-2, -1)
      assert(want.subsetOf(seen), s"${spec.params} on kind $kind saw $seen")
    }
    // The numeric maximum folds into the last bucket; outside [min, max] is -1.
    val bk  = NumericBuckets(0, 20, 7)
    val out = new Array[Int](4)
    bk.bind(DoubleColumn(Array(20.0, 0.0, 20.5, -0.25))).fill(Array(0, 1, 2, 3), 4, out)
    assert(out.toSeq == Seq(6, 0, -1, -1))
  }

  test("kinds 0 and 5 are a scaled and a raw double column") {
    val (scaled, raw) = (column(0, 3000, 1), column(5, 3000, 2))
    assert(scaled.asInstanceOf[DoubleColumn].values.isScaled)
    assert(!raw.asInstanceOf[DoubleColumn].values.isScaled)
    assert(!column(0, 2000, 1).asInstanceOf[DoubleColumn].values.isScaled)
  }

  /** A double, long or date column of `n` cells whose packed codes span
    * exactly `span` from a negative base, missing in cell 2 and about a
    * sixth of the others. A double's missing cells take the code past its
    * largest value, so its values span one less.
    */
  private def packedColumn(kind: Int, n: Int, span: Long, rng: SplitMix): Column = {
    val top   = if (kind == 0) span - 1 else span
    val lo    = -(span / 3) * 10 - 7 // not a multiple of ten: the doubles keep scale 2
    val codes = Array.tabulate(n)(i => if (i == 0) lo else if (i == 1) lo + top else lo + (rng.nextLong() >>> 1) % (top + 1))
    val miss  = nulls(n, rng)
    miss.clear(0); miss.clear(1); miss.set(2)
    kind match {
      case 0 => DoubleColumn(Array.tabulate(n)(i => if (miss.get(i)) Double.NaN else codes(i) / 100.0))
      case 1 => LongColumn(codes, miss)
      case _ => DateColumn(codes.map(_.toInt), miss)
    }
  }

  test("a packed column binds through a per-block table exactly when its span fits, and agrees with indexOf") {
    val gen = for {
      n    <- Gen.oneOf(Gen.choose(3, 700), Gen.const(70000))
      seed <- Gen.choose(0L, 1L << 40)
    } yield (n, seed)
    check(Prop.forAll(gen) { case (n, seed) =>
      val rng = new SplitMix(seed)
      // A double is scaled, and so bound through its decode table, while
      // that table fits; a long or date while its bucket table does.
      def limit(kind: Int): Long =
        if (kind == 0) (n / PackedDoubles.RowsPerEntry).toLong else math.min(BoundBuckets.Coded.MaxTable, n).toLong
      val checks = for {
        kind <- 0 to 2
        span <- Seq(limit(kind) - 1, limit(kind)) if span >= 1
        c     = packedColumn(kind, n, span, rng)
        (lo, hi) = (c.asDouble(0), c.asDouble(1))
        spec <- Seq(NumericBuckets(lo, hi, 100), NumericBuckets(lo + (hi - lo) / 4, hi - (hi - lo) / 3, 7))
      } yield {
        val bound = spec.bind(c)
        val rows  = Array.fill(2 * n)(rng.nextInt(n))
        val out   = new Array[Int](rows.length)
        bound.fill(rows, rows.length, out)
        val shape = c match {
          case DoubleColumn(v)  => v.isScaled == (span < limit(kind)) && (!v.isScaled || v.codes.span == span)
          case p: PackedColumn  => p.values.span == span
          case _                => false
        }
        shape && bound.isInstanceOf[BoundBuckets.Coded] == (span < limit(kind)) &&
        rows.indices.forall { k =>
          val i = rows(k)
          out(k) == (if (c.isMissing(i)) BoundBuckets.Missing else spec.indexOf(c, i))
        }
      }
      checks.forall(identity)
    })
  }

  // ---------- chart sketches over filtered blocks ----------

  private val block   = TestData.mixedBlock(9000, 12)
  private val denseB  = block.filtered(i => i % 3 != 0)
  private val sparseB = block.filtered(i => i % 11 == 4)
  private val xb      = NumericBuckets(0, 8, 9)
  private val lb      = NumericBuckets(-2, 3, 5)
  private val db      = NumericBuckets(18000, 18020, 6)
  private val sb      = ExactStringBuckets(Array("AA", "DL", "UA", "WN"))
  private val gb      = StringBoundaryBuckets(Array("B", "UA"))

  private def members(b: ColumnarBlock): Vector[Int] = TestData.drain(b.batches)
  private def at(b: ColumnarBlock, spec: BucketSpec, col: String, i: Int): Int = spec.indexOf(b.column(col), i)

  private def filteredBlocks = {
    assert(denseB.membership.isInstanceOf[DenseMembership])
    assert(sparseB.membership.isInstanceOf[SparseMembership])
    Seq("dense" -> denseB, "sparse" -> sparseB)
  }

  private val ctx = LeafCtx(3, 41)

  /** The rows a chart sketch run with `ctx` at `rate` visits: drawn from
    * the same cursor and rng as its `summarize`.
    */
  private def visited(b: ColumnarBlock, rate: Double): Vector[Int] = TestData.drain(b.batches(rate, ctx.rng))

  private def checkHistogram(name: String, b: ColumnarBlock, rate: Double): Unit = {
    val rows = visited(b, rate)
    for ((col, bk) <- Seq("x" -> xb, "l" -> lb, "d" -> db, "s" -> sb)) {
      val got    = HistogramSketch(col, bk, rate).summarize(b, ctx)
      val c      = b.column(col)
      val counts = (0 until bk.count).map(k => rows.count(i => !c.isMissing(i) && at(b, bk, col, i) == k).toLong)
      assert(got.counts.toSeq == counts, s"$name $col")
      assert(got.missing == rows.count(c.isMissing).toLong, s"$name $col")
      assert(got.outOfRange == rows.count(i => !c.isMissing(i) && at(b, bk, col, i) < 0).toLong, s"$name $col")
      assert(got.sampled == rows.size.toLong && got.rate == rate)
    }
  }

  private def checkStacked(name: String, b: ColumnarBlock, rate: Double): Unit = {
    val rows = visited(b, rate)
    val got  = StackedHistogramSketch("x", xb, "s", sb, rate).summarize(b, ctx)
    for (x <- 0 until xb.count) {
      assert(got.barCounts(x) == rows.count(i => at(b, xb, "x", i) == x).toLong, s"$name bar $x")
      for (y <- 0 until sb.count)
        assert(got.cell(x, y) == rows.count(i => at(b, xb, "x", i) == x && at(b, sb, "s", i) == y).toLong)
    }
    assert(got.missing == rows.count(i => at(b, xb, "x", i) < 0).toLong)
    assert(got.sampled == rows.size.toLong && got.rate == rate)
  }

  private def checkHeatmapAndTrellis(name: String, b: ColumnarBlock, rate: Double): Unit = {
    val rows = visited(b, rate)
    val hm   = HeatmapSketch("x", xb, "l", lb, rate).summarize(b, ctx)
    for (x <- 0 until xb.count; y <- 0 until lb.count)
      assert(hm.cell(x, y) == rows.count(i => at(b, xb, "x", i) == x && at(b, lb, "l", i) == y).toLong,
        s"$name heatmap ($x,$y)")
    assert(hm.missing == rows.count(i => at(b, xb, "x", i) < 0 || at(b, lb, "l", i) < 0).toLong)
    assert(hm.sampled == rows.size.toLong && hm.rate == rate)

    // The group column has missing rows and rows outside the groups; neither is in any plot.
    val w = b.column("s")
    assert(rows.exists(w.isMissing) && rows.exists(i => !w.isMissing(i) && at(b, gb, "s", i) < 0), name)
    val tr = TrellisHeatmapSketch("s", gb, "d", db, "x", xb, rate).summarize(b, ctx)
    assert(tr.plots.length == gb.count)
    for (g <- 0 until gb.count) {
      val inG = rows.filter(i => at(b, gb, "s", i) == g)
      val p   = tr.plots(g)
      assert(p.sampled == inG.size.toLong && p.rate == rate, s"$name trellis group $g")
      assert(p.missing == inG.count(i => at(b, db, "d", i) < 0 || at(b, xb, "x", i) < 0).toLong)
      for (x <- 0 until db.count; y <- 0 until xb.count)
        assert(p.cell(x, y) == inG.count(i => at(b, db, "d", i) == x && at(b, xb, "x", i) == y).toLong)
    }
  }

  test("streaming histogram on filtered blocks equals a brute-force count") {
    for ((name, b) <- filteredBlocks) checkHistogram(name, b, 1.0)
  }

  test("streaming stacked histogram on filtered blocks equals a brute-force count") {
    for ((name, b) <- filteredBlocks) checkStacked(name, b, 1.0)
  }

  test("streaming heatmap and trellis on filtered blocks equal a brute-force count") {
    for ((name, b) <- filteredBlocks) checkHeatmapAndTrellis(name, b, 1.0)
  }

  test("chart sketches on the full block, and sampled at rate 0.3, equal a count over the visited rows") {
    val inputs = ("full" -> block, 1.0) +: (("full" -> block) +: filteredBlocks).map(_ -> 0.3)
    for (((name, b), rate) <- inputs) {
      val label = s"$name r=$rate"
      checkHistogram(label, b, rate)
      checkStacked(label, b, rate)
      checkHeatmapAndTrellis(label, b, rate)
    }
  }

  test("moments on filtered blocks equal a brute-force pass over the member rows") {
    for ((name, b) <- filteredBlocks; col <- Seq("x", "l", "d", "s")) {
      val got  = MomentsSketch(col, 3).summarize(b, LeafCtx(0, 0))
      val c    = b.column(col)
      val xs   = members(b).map(c.asDouble)
      val vals = xs.filterNot(_.isNaN)
      assert(got.count == xs.size.toLong && got.missing == (xs.size - vals.size).toLong, s"$name $col")
      assert(got.min == vals.foldLeft(Double.PositiveInfinity)(math.min), s"$name $col")
      assert(got.max == vals.foldLeft(Double.NegativeInfinity)(math.max), s"$name $col")
      for (j <- 1 to 3)
        assert(got.powerSums(j - 1) == vals.foldLeft(0.0)((s, v) => s + math.pow(v, j)), s"$name $col K=$j")
    }
  }
}
