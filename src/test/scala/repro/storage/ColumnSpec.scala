package repro.storage

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.UnsafeProjection
import org.apache.spark.sql.types._
import org.apache.spark.util.SizeEstimator
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BoundBuckets, NumericBuckets, SplitMix}

class ColumnSpec extends AnyFunSuite {

  private def check(prop: Prop): Unit = {
    val result = org.scalacheck.Test.check(
      org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(20), prop)
    assert(result.passed, result.status.toString)
  }

  test("DoubleColumn basic access") {
    val c = DoubleColumn(Array(1.5, 2.5, Double.NaN))
    assert(c.size == 3)
    assert(c.asDouble(0) == 1.5)
    assert(!c.isMissing(1))
    assert(c.isMissing(2))
    assert(c.asString(2) == null)
    assert(c.asString(0) == "1.5")
  }

  test("LongColumn without nulls") {
    val c = LongColumn(Array(10L, -3L), null)
    assert(!c.isMissing(0) && !c.isMissing(1))
    assert(c.asDouble(1) == -3.0)
    assert(c.asString(0) == "10")
  }

  test("LongColumn with null bitset") {
    val nulls = new java.util.BitSet(2)
    nulls.set(1)
    val c = LongColumn(Array(5L, 0L), nulls)
    assert(!c.isMissing(0))
    assert(c.isMissing(1))
    assert(c.asDouble(1).isNaN)
    assert(c.asString(1) == null)
  }

  test("DateColumn renders ISO dates and maps to epoch days") {
    val days = java.time.LocalDate.parse("2019-06-15").toEpochDay.toInt
    val c    = DateColumn(Array(days), null)
    assert(c.asString(0) == "2019-06-15")
    assert(c.asDouble(0) == days.toDouble)
  }

  test("DateColumn missing handling") {
    val nulls = new java.util.BitSet(1)
    nulls.set(0)
    val c = DateColumn(Array(0), nulls)
    assert(c.isMissing(0) && c.asDouble(0).isNaN && c.asString(0) == null)
  }

  test("StringColumn dictionary encoding round-trips") {
    val c = StringColumn(Array("UA", "AA"), Array(0, 1, 0, -1))
    assert(c.size == 4)
    assert(c.asString(0) == "UA")
    assert(c.asString(2) == "UA")
    assert(c.asString(1) == "AA")
    assert(c.isMissing(3) && c.asString(3) == null)
    assert(c.asDouble(0).isNaN) // strings are not numeric
  }

  test("StringColumn shares dictionary entries (compression)") {
    val vals = Array.fill(1000)("repeated")
    val c    = StringColumn(Array("repeated"), Array.fill(1000)(0))
    assert(c.dict.length == 1)
    (0 until 1000).foreach(i => assert(c.asString(i) == "repeated"))
    assert(vals.length == c.size)
  }

  /** `n` values in [lo, lo + span] (span unsigned) with both ends
    * present, and a missing-value bitset (null without nulls) whose slots
    * hold arbitrary longs, which packing must leave out of the range.
    */
  private def values(n: Int, lo: Long, span: Long, withNulls: Boolean, rng: SplitMix): (Array[Long], java.util.BitSet) = {
    val vs = Array.tabulate(n) { i =>
      if (i == 0) lo
      else if (i == 1) lo + span
      else if (span == -1L) rng.nextLong()
      else lo + java.lang.Long.remainderUnsigned(rng.nextLong(), span + 1)
    }
    val nulls = if (withNulls) new java.util.BitSet(n) else null
    if (withNulls) (2 until n).foreach(i => if (rng.nextInt(5) == 0) { nulls.set(i); vs(i) = rng.nextLong() })
    (vs, nulls)
  }

  /** Random row ids, unordered and repeated, as a batch gather sees them. */
  private def rowIds(n: Int, rng: SplitMix): Array[Int] = Array.fill(2 * n)(rng.nextInt(n))

  /** `c` agrees with the plain arrays on every cell view and the batch gather. */
  private def agrees(c: Column, vs: Array[Long], nulls: java.util.BitSet, render: Long => String,
                     rng: SplitMix): Boolean = {
    def missing(i: Int) = nulls != null && nulls.get(i)
    val cells = vs.indices.forall { i =>
      c.isMissing(i) == missing(i) &&
      (if (missing(i)) c.asDouble(i).isNaN && c.asString(i) == null
       else c.asDouble(i) == vs(i).toDouble && c.asString(i) == render(vs(i)))
    }
    val rows = rowIds(vs.length, rng)
    val out  = new Array[Double](rows.length)
    c.doubles(rows, rows.length, out)
    cells && c.size == vs.length && rows.indices.forall { k =>
      val i = rows(k)
      if (missing(i)) out(k).isNaN else out(k) == vs(i).toDouble
    }
  }

  /** Spans at each width boundary and the width they pack to; -1 is
    * Long.MinValue..Long.MaxValue (span 2^64 - 1).
    */
  private val Spans = Seq(0L -> 1, 255L -> 1, 256L -> 2, 65535L -> 2, 65536L -> 4,
    0xFFFFFFFFL -> 4, 0x100000000L -> 8, -1L -> 8)

  test("packed LongColumn agrees with a plain array at every width boundary") {
    val gen = for {
      n    <- Gen.choose(3, 700)
      lo   <- Gen.oneOf(Gen.const(0L), Gen.choose(-1000000000000L, 1000000000000L))
      seed <- Gen.choose(0L, 1L << 40)
    } yield (n, lo, seed)
    check(Prop.forAll(gen) { case (n, lo0, seed) =>
      val rng = new SplitMix(seed)
      Spans.forall { case (span, width) =>
        val lo = if (span == -1L) Long.MinValue else lo0
        Seq(false, true).forall { withNulls =>
          val (vs, nulls) = values(n, lo, span, withNulls, rng)
          val c = LongColumn(vs, nulls)
          c.values.width == width && agrees(c, vs, nulls, _.toString, rng)
        }
      }
    })
  }

  test("packed DateColumn agrees with a plain array, negative epoch days included") {
    val gen = for {
      n    <- Gen.choose(3, 700)
      lo   <- Gen.choose(-800000, 800000)
      seed <- Gen.choose(0L, 1L << 40)
    } yield (n, lo, seed)
    check(Prop.forAll(gen) { case (n, lo0, seed) =>
      val rng = new SplitMix(seed)
      Spans.filter(_._1 >= 0L).filter(_._1 <= 0xFFFFFFFFL).forall { case (span, width) =>
        // Days are ints: a span past 2^31 starts at Int.MinValue.
        val lo = if (span > Int.MaxValue) Int.MinValue.toLong else math.min(lo0.toLong, Int.MaxValue - span)
        Seq(false, true).forall { withNulls =>
          val (vs, nulls) = values(n, lo, span, withNulls, rng)
          val c = DateColumn(vs.map(_.toInt), nulls)
          c.values.width == width &&
          agrees(c, vs, nulls, d => java.time.LocalDate.ofEpochDay(d).toString, rng)
        }
      }
    })
  }

  test("packed StringColumn codes agree with a plain array for every dictionary width") {
    val rng = new SplitMix(7)
    Seq(1 -> 1, 127 -> 1, 128 -> 1, 255 -> 1, 256 -> 2, 32768 -> 2).foreach { case (entries, width) =>
      val dict  = Array.tabulate(entries)(e => s"v$e")
      val n     = 3 * entries + 10
      val codes = Array.tabulate(n)(i => if (i < entries) i else rng.nextInt(entries + 1) - 1)
      codes(n - 1) = -1
      val c = StringColumn(dict, codes)
      assert(c.codes.width == width, s"$entries entries")
      codes.indices.foreach { i =>
        assert(c.isMissing(i) == (codes(i) < 0))
        assert(c.asString(i) == (if (codes(i) < 0) null else dict(codes(i))))
        assert(c.asDouble(i).isNaN)
      }
      val rows = rowIds(n, rng)
      val out  = new Array[Int](rows.length)
      c.codes.ints(rows, rows.length, out)
      assert(out.toSeq == rows.toSeq.map(codes), s"$entries entries")
    }
  }

  test("a packed block of small-range longs and a 60-entry dictionary is at most a third of the wide layout") {
    val n     = 10000
    val rng   = new SplitMix(3)
    val month = Array.fill(n)(1L + rng.nextInt(12))
    val dict  = Array.tabulate(60)(e => f"AP$e%03d")
    val codes = Array.fill(n)(rng.nextInt(dict.length))
    val block = ColumnarBlock.of(n, "Month" -> LongColumn(month, null), "Origin" -> StringColumn(dict, codes))
    val wide  = (month, (dict, codes))
    val (packed, plain) = (SizeEstimator.estimate(block), SizeEstimator.estimate(wide))
    assert(packed * 3 <= plain, s"packed $packed B, wide $plain B")
  }

  test("a packed block survives a Java round trip") {
    val rng   = new SplitMix(11)
    val n     = 500
    val cols  = Spans.map { case (span, _) =>
      val (vs, nulls) = values(n, if (span == -1L) Long.MinValue else -17L, span, withNulls = true, rng)
      (vs, nulls, LongColumn(vs, nulls))
    }
    val days  = Array.fill(n)(rng.nextInt(5000) - 2500)
    val codes = Array.fill(n)(rng.nextInt(301) - 1)
    val dict  = Array.tabulate(300)(e => s"s$e")
    val block = ColumnarBlock.of(n, (cols.indices.map(j => s"l$j" -> cols(j)._3) ++
      Seq("d" -> DateColumn(days, null), "s" -> StringColumn(dict, codes))): _*)

    val bytes = new java.io.ByteArrayOutputStream()
    val out   = new java.io.ObjectOutputStream(bytes)
    out.writeObject(block); out.close()
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[ColumnarBlock]

    cols.indices.foreach { j =>
      val c = back.column(s"l$j").asInstanceOf[LongColumn]
      assert(c.values.width == cols(j)._3.values.width)
      assert(agrees(c, cols(j)._1, cols(j)._2, _.toString, rng), s"column l$j")
    }
    (0 until n).foreach { i =>
      assert(back.column("d").asDouble(i) == days(i).toDouble)
      assert(back.column("s").asString(i) == (if (codes(i) < 0) null else dict(codes(i))))
    }
  }

  // ---------- scaled doubles ----------

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** `c` holds `vs` bit for bit on every cell view and the batch gather. */
  private def holds(c: DoubleColumn, vs: Array[Double], rng: SplitMix): Boolean = {
    val cells = vs.indices.forall { i =>
      bits(c.asDouble(i)) == bits(vs(i)) && c.isMissing(i) == vs(i).isNaN &&
      c.asString(i) == (if (vs(i).isNaN) null else vs(i).toString)
    }
    val rows = rowIds(vs.length, rng)
    val out  = new Array[Double](rows.length)
    c.doubles(rows, rows.length, out)
    cells && c.size == vs.length && c.values.toArray.map(bits).toSeq == vs.map(bits).toSeq &&
    rows.indices.forall(k => bits(out(k)) == bits(vs(rows(k))))
  }

  /** Spans of present codes: narrow enough for a decode table in longer
    * blocks, and at each width boundary.
    */
  private val CodeSpans = Seq(9L, 255L, 300L, 65535L, 0xFFFFFFFFL, 0x200000000L)

  /** The width offsets up to `span` pack to. */
  private def widthOf(span: Long): Int =
    if (span <= 0xFFL) 1 else if (span <= 0xFFFFL) 2 else if (span <= 0xFFFFFFFFL) 4 else 8

  /** `n` values `c / 10^scale` for codes c in [lo, lo + span] with both
    * ends present; `lo` ends in 3, so no smaller scale holds it. NaN in
    * about a fifth of the other slots with `withNaN`, −0.0 in about a
    * seventh with `withNegZero`.
    */
  private def decimals(n: Int, lo: Long, span: Long, scale: Int, withNaN: Boolean, rng: SplitMix,
                       withNegZero: Boolean = false): Array[Double] = {
    val p = math.pow(10, scale)
    Array.tabulate(n) { i =>
      val c = if (i == 0) lo else if (i == 1) lo + span else lo + java.lang.Long.remainderUnsigned(rng.nextLong(), span + 1)
      if (withNaN && i > 1 && rng.nextInt(5) == 0) Double.NaN
      else if (withNegZero && i > 1 && rng.nextInt(7) == 0) -0.0
      else c.toDouble / p
    }
  }

  test("scaled doubles decode bit for bit at every scale, raw one decimal past the last scale or when the span outgrows the decode table") {
    val gen = for {
      n    <- Gen.oneOf(Gen.choose(3, 700), Gen.const(5000))
      lo   <- Gen.choose(-100000000L, 100000000L)
      seed <- Gen.choose(0L, 1L << 40)
    } yield (n, lo * 10 + 3, seed)
    check(Prop.forAll(gen) { case (n, lo, seed) =>
      val rng = new SplitMix(seed)
      (0 to PackedDoubles.MaxScale + 1).forall { scale =>
        CodeSpans.forall { span =>
          Seq((false, false), (true, false), (false, true), (true, true)).forall { case (withNaN, withNegZero) =>
            val vs = decimals(n, lo, span, scale, withNaN, rng, withNegZero)
            val c  = DoubleColumn(vs)
            // A missing value takes the code past the largest one, −0.0 the code after that.
            val codeSpan = span + (if (vs.exists(_.isNaN)) 1 else 0) +
              (if (vs.exists(v => bits(v) == bits(-0.0))) 1 else 0)
            val shape =
              if (scale > PackedDoubles.MaxScale || (codeSpan + 1) * PackedDoubles.RowsPerEntry > n)
                !c.values.isScaled && (c.values.raw eq vs)
              else c.values.isScaled && c.values.scale == scale && c.values.codes.width == widthOf(codeSpan) &&
                c.values.table.length == codeSpan + 1
            shape && holds(c, vs, rng)
          }
        }
      }
    })
  }

  test("infinities, other NaNs and codes of 2^53 keep the raw array") {
    val specials = Seq(Double.PositiveInfinity, Double.NegativeInfinity, 9007199254740992.0,
      -9007199254740992.0, java.lang.Double.longBitsToDouble(0x7ff8000000000001L), 1e300)
    val gen = for {
      n    <- Gen.choose(100, 500)
      seed <- Gen.choose(0L, 1L << 40)
    } yield (n, seed)
    check(Prop.forAll(gen) { case (n, seed) =>
      val rng = new SplitMix(seed)
      specials.forall { x =>
        val vs     = decimals(n + 2, -5003L, 3L, 1, withNaN = true, rng)
        val scaled = DoubleColumn(vs.clone()).values.isScaled // a span narrow enough for the table
        vs(2 + rng.nextInt(n)) = x
        val c = DoubleColumn(vs)
        scaled && !c.values.isScaled && (c.values.raw eq vs) && holds(c, vs, rng)
      }
    })
  }

  test("a block with −0.0 cells is scaled, decodes them bit for bit and buckets them as the raw path does") {
    val rng = new SplitMix(23)
    for (withNaN <- Seq(false, true); span <- Seq(0L, 40L, 120L)) {
      val vs = decimals(2000, -23L, span, 1, withNaN, rng, withNegZero = true)
      val c  = DoubleColumn(vs)
      assert(c.values.isScaled && c.values.scale == 1, s"span $span")
      assert(c.values.table.length == span + 2 + (if (withNaN) 1 else 0))
      assert(c.values.table.count(x => bits(x) == bits(-0.0)) == 1)
      assert(holds(c, vs, rng))
      // The same cells plus one full-precision value keep the raw array.
      val raw  = DoubleColumn(vs :+ math.Pi)
      val rows = rowIds(vs.length, rng)
      assert(!raw.values.isScaled)
      for (spec <- Seq(NumericBuckets(-2.3, 9.7, 10), NumericBuckets(0.0, 9.7, 7), NumericBuckets(-0.0, 1.0, 3),
                       NumericBuckets(-2.3, 0.0, 4), NumericBuckets(-2.3, -0.0, 4))) {
        val (scaledIds, rawIds) = (new Array[Int](rows.length), new Array[Int](rows.length))
        spec.bind(c).fill(rows, rows.length, scaledIds)
        spec.bind(raw).fill(rows, rows.length, rawIds)
        val want = rows.map(i => if (vs(i).isNaN) BoundBuckets.Missing else spec.indexOf(vs(i)))
        assert(scaledIds.toSeq == rawIds.toSeq && rawIds.toSeq == want.toSeq, spec)
      }
    }
    val zeros = Array.fill(64)(-0.0)
    val z     = DoubleColumn(zeros)
    assert(z.values.isScaled && z.values.table.length == 1 && holds(z, zeros, rng))
  }

  test("an all-missing double block is scaled with every slot missing") {
    val vs = Array.fill(300)(Double.NaN)
    val c  = DoubleColumn(vs)
    assert(c.values.isScaled && c.values.scale == 0 && c.values.codes.width == 1 && c.values.table.toSeq.forall(_.isNaN))
    assert(holds(c, vs, new SplitMix(5)))
    assert(holds(DoubleColumn(Array.empty[Double]), Array.empty[Double], new SplitMix(5)))
  }

  test("a block of one-decimal doubles is at most a third of the double array") {
    val n   = 10000
    val rng = new SplitMix(13)
    val vs  = Array.fill(n)(if (rng.nextInt(50) == 0) Double.NaN else math.round(rng.nextGaussian() * 30) / 10.0)
    val block = ColumnarBlock.of(n, "DepDelay" -> DoubleColumn(vs))
    assert(block.column("DepDelay").asInstanceOf[DoubleColumn].values.scale == 1)
    val (packed, plain) = (SizeEstimator.estimate(block), SizeEstimator.estimate(vs))
    assert(packed * 3 <= plain, s"packed $packed B, double[] $plain B")
  }

  test("a block of a scaled and a raw double column survives a Java round trip") {
    val rng    = new SplitMix(17)
    val scaled = decimals(1000, -2993L, 40L, 2, withNaN = true, rng)
    val raw    = Array.fill(1000)(if (rng.nextInt(9) == 0) Double.NaN else rng.nextDouble() * 100)
    val block  = ColumnarBlock.of(1000, "s" -> DoubleColumn(scaled), "r" -> DoubleColumn(raw))
    val bytes  = new java.io.ByteArrayOutputStream()
    val out    = new java.io.ObjectOutputStream(bytes)
    out.writeObject(block); out.close()
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[ColumnarBlock]
    val (s, r) = (back.column("s").asInstanceOf[DoubleColumn], back.column("r").asInstanceOf[DoubleColumn])
    assert(s.values.isScaled && s.values.scale == 2 && s.values.codes.width == 1)
    assert(!r.values.isScaled)
    assert(holds(s, scaled, rng) && holds(r, raw, rng))
  }

  /** `rows` as a query plan yields them: one `UnsafeRow` object, reused
    * for every row.
    */
  private def catalystRows(rows: Seq[Row], schema: StructType): Iterator[InternalRow] = {
    val toCatalyst = CatalystTypeConverters.createToCatalystConverter(schema)
    val unsafe     = UnsafeProjection.create(schema)
    rows.iterator.map(r => unsafe(toCatalyst(r).asInstanceOf[InternalRow]))
  }

  test("buildBlock scales Double, Float and Decimal cells that are decimals of a narrow span and keeps the others raw") {
    val schema = StructType(Seq(
      StructField("x", DoubleType), StructField("f", FloatType), StructField("m", DecimalType(12, 3)),
      StructField("full", DoubleType), StructField("tenth", FloatType), StructField("wide", DoubleType)))
    val rows = Seq(
      Row(1.3, 0.25f, new java.math.BigDecimal("0.008"), math.Pi, 0.1f, 1000.5),
      Row(null, null, null, null, null, null),
      Row(-0.7, -0.5f, new java.math.BigDecimal("-0.005"), 1.0, 2.0f, -1000.5),
      Row(4.0, 0.0f, new java.math.BigDecimal("0"), -2.0, 3.0f, 0.0))
    val copies = 400 // enough rows for each scaled column's decode table
    val b = ColumnStore.buildBlock(catalystRows(Seq.fill(copies)(rows).flatten, schema), schema)
    def col(name: String) = b.column(name).asInstanceOf[DoubleColumn]
    val want = Map(
      "x"     -> Seq(1.3, Double.NaN, -0.7, 4.0),
      "f"     -> Seq(0.25, Double.NaN, -0.5, 0.0),
      "m"     -> Seq(0.008, Double.NaN, -0.005, 0.0),
      "full"  -> Seq(math.Pi, Double.NaN, 1.0, -2.0),
      "tenth" -> Seq(0.1f.toDouble, Double.NaN, 2.0, 3.0),
      "wide"  -> Seq(1000.5, Double.NaN, -1000.5, 0.0))
    want.foreach { case (name, vs) =>
      assert(holds(col(name), Seq.fill(copies)(vs).flatten.toArray, new SplitMix(1)), name)
    }
    assert(Seq("x", "f", "m").map(n => col(n).values.scale) == Seq(1, 2, 3))
    assert(Seq("x", "f", "m").forall(n => col(n).values.isScaled))
    assert(Seq("full", "tenth", "wide").forall(n => !col(n).values.isScaled))
  }

  test("buildBlock reads every cached Catalyst type through its getter and packs integers") {
    val schema = StructType(Seq(
      StructField("b", ByteType), StructField("sh", ShortType), StructField("i", IntegerType),
      StructField("l", LongType), StructField("z", BooleanType), StructField("d", DateType),
      StructField("f", FloatType), StructField("x", DoubleType), StructField("m", DecimalType(10, 2)),
      StructField("s", StringType)))
    val day  = java.sql.Date.valueOf("1969-12-30")
    val rows = Seq(
      Row(1.toByte, 300.toShort, -70000, Long.MaxValue, true, day, 1.5f, 2.5, new java.math.BigDecimal("3.25"), "a"),
      Row(null, null, null, null, null, null, null, null, null, null),
      Row(-2.toByte, 0.toShort, 70000, Long.MinValue, false, java.sql.Date.valueOf("1970-01-02"), -1.5f, -2.5,
        new java.math.BigDecimal("-3.25"), "b"))
    val b = ColumnStore.buildBlock(catalystRows(rows, schema), schema)
    def cells(name: String) = (0 until 3).map(i => b.column(name).asString(i))
    assert(cells("b") == Seq("1", null, "-2"))
    assert(cells("sh") == Seq("300", null, "0"))
    assert(cells("i") == Seq("-70000", null, "70000"))
    assert(cells("l") == Seq(Long.MaxValue.toString, null, Long.MinValue.toString))
    assert(cells("z") == Seq("1", null, "0"))
    assert(cells("d") == Seq("1969-12-30", null, "1970-01-02"))
    assert(cells("f") == Seq("1.5", null, "-1.5"))
    assert(cells("x") == Seq("2.5", null, "-2.5"))
    assert(cells("m") == Seq("3.25", null, "-3.25"))
    assert(cells("s") == Seq("a", null, "b"))
    val widths = Seq("b", "sh", "i", "l", "z", "d").map(c => b.column(c).asInstanceOf[PackedColumn].values.width)
    assert(widths == Seq(1, 2, 4, 8, 1, 1))
    assert(b.column("s").asInstanceOf[StringColumn].codes.width == 1)
  }
}
