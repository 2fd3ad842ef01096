package repro.storage

import scala.annotation.switch

/** In-memory columnar representation of worker-cached data (paper §5.4/§6).
  *
  * Hillview keeps the data cache "organized by column to provide data
  * locality" and uses "Java arrays of base types to reduce pressure on the
  * GC"; string columns "use dictionary encoding for compression". This ADT
  * mirrors that: primitive arrays per column, dictionary-encoded strings,
  * integers, dates and dictionary codes packed by `PackedInts` into the
  * narrowest primitive array that holds each block's range, and doubles
  * that are decimals stored by `PackedDoubles` as scaled packed integers.
  *
  * Missing values: a raw `DoubleColumn` encodes missing as NaN and a
  * scaled one as a reserved code that decodes to NaN; `LongColumn` and
  * `DateColumn` carry an optional bitset; `StringColumn` uses code -1.
  */
sealed trait Column extends Serializable {
  def size: Int
  def isMissing(i: Int): Boolean

  /** Numeric view; NaN when missing or non-numeric. Dates map to epoch days
    * ("a value that can be readily converted to a real number, such as a
    * date" — paper §4.3).
    */
  def asDouble(i: Int): Double

  /** `asDouble` of a batch: `out(k) = asDouble(rows(k))` for k < n, in one
    * loop over the primitive array.
    */
  def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit

  /** String view; null when missing. */
  def asString(i: Int): String
}

final case class DoubleColumn(values: PackedDoubles) extends Column {
  def size: Int                  = values.length
  def isMissing(i: Int): Boolean = values.isMissing(i)
  def asDouble(i: Int): Double   = values(i)
  def asString(i: Int): String   = if (isMissing(i)) null else values(i).toString

  def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit = values.doubles(rows, n, out)
}

object DoubleColumn {
  /** The column of `values`, scaled or raw as `PackedDoubles` chooses. */
  def apply(values: Array[Double]): DoubleColumn = DoubleColumn(PackedDoubles(values))
}

/** Doubles by decimal scaling (Afroozeh, Kuffó, Boncz, SIGMOD 2024): when
  * every present value v of the block is `c / 10^k` bit for bit for an
  * integer code |c| < 2^53 and a scale k in 0..`MaxScale` (the smallest
  * such k), and the codes' span + 1 is at most one per `RowsPerEntry`
  * rows, the block is *scaled*: its codes are packed by `PackedInts`, a
  * missing (NaN) slot holds the code one past the largest present one, a
  * −0.0 slot the code after that (after the largest present one if no
  * slot is missing), and `table` holds the decoded value of every offset,
  * the code divided by the exact power of ten (NaN and −0.0 at their
  * reserved codes), so a read is one gather through it and every value
  * decodes bit for bit. Otherwise (±∞, NaN payloads other than
  * `Double.NaN`, codes ≥ 2^53, full-precision data, spans too wide for
  * the table) the block is *raw*: it keeps its `double[]`, NaN meaning
  * missing. The data chooses; neither is an option.
  */
final class PackedDoubles private (
    val scale: Int,
    val codes: PackedInts,
    val table: Array[Double],
    val raw: Array[Double]
) extends Serializable {

  def isScaled: Boolean = raw == null
  def length: Int       = if (raw != null) raw.length else codes.size

  def apply(i: Int): Double = if (raw != null) raw(i) else table((codes(i) - codes.base).toInt)

  def isMissing(i: Int): Boolean = apply(i).isNaN

  /** `out(k) = apply(rows(k))` for k < n. */
  def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit =
    if (raw != null) {
      val a = raw
      var k = 0
      while (k < n) { out(k) = a(rows(k)); k += 1 }
    } else codes.lookup(rows, n, table, out)

  def toArray: Array[Double] = if (raw != null) raw.clone() else Array.tabulate(length)(apply)
}

object PackedDoubles {

  /** The largest decimal scale tried. */
  val MaxScale = 6

  /** A scaled block's decode table has at most one entry per this many
    * rows: 8 B per entry, so at most 0.5 B per row, and a block of up to
    * 2^20 rows packs its codes in 1 or 2 B.
    */
  val RowsPerEntry = 16

  private val Raw         = MaxScale + 1
  private val Pow10       = Array.tabulate(Raw)(k => math.pow(10, k))
  private val TwoTo53     = 1L << 53
  private val NaNBits     = java.lang.Double.doubleToRawLongBits(Double.NaN)
  private val NegZeroBits = java.lang.Double.doubleToRawLongBits(-0.0)
  private val NoCode      = Long.MinValue

  /** The integer c with |c| < 2^53 and `c / p` equal to `v` bit for bit;
    * `NoCode` if there is none.
    */
  private def code(v: Double, p: Double): Long = {
    val c = math.rint(v * p).toLong
    if (c > -TwoTo53 && c < TwoTo53 &&
        java.lang.Double.doubleToRawLongBits(c.toDouble / p) == java.lang.Double.doubleToRawLongBits(v)) c
    else NoCode
  }

  /** No integer code decodes to −0.0, so it takes a reserved one. */
  private def isNegZero(v: Double): Boolean = java.lang.Double.doubleToRawLongBits(v) == NegZeroBits

  /** The smallest scale ≥ `k` at which `v` round-trips, `Raw` if none. A
    * value that fits at a scale fits at every larger one while its code
    * stays below 2^53, which `apply` checks as it packs.
    */
  private def scaleFor(v: Double, k: Int): Int =
    if (v.isNaN) { if (java.lang.Double.doubleToRawLongBits(v) == NaNBits) k else Raw }
    else if (isNegZero(v)) k
    else {
      var s = k
      while (s < Raw && code(v, Pow10(s)) == NoCode) s += 1
      s
    }

  /** `values` scaled, or raw (the same array) when the block is not
    * decimal or its codes span too wide. Codes go through `scratch` when
    * given (at least `values.length` longs).
    */
  def apply(values: Array[Double], scratch: Array[Long] = null): PackedDoubles = {
    val n   = values.length
    val raw = new PackedDoubles(0, null, null, values)
    var k   = 0
    var i   = 0
    while (i < n && k < Raw) { k = scaleFor(values(i), k); i += 1 }
    if (k == Raw) return raw
    val p     = Pow10(k)
    val codes = if (scratch == null) new Array[Long](n) else scratch
    var lo      = Long.MaxValue
    var hi      = Long.MinValue
    var nan     = false
    var negZero = false
    i = 0
    while (i < n) {
      val v = values(i)
      if (v.isNaN) nan = true
      else if (isNegZero(v)) negZero = true
      else {
        val c = code(v, p)
        if (c == NoCode) return raw
        codes(i) = c
        if (c < lo) lo = c
        if (c > hi) hi = c
      }
      i += 1
    }
    if (lo > hi) { lo = 0L; hi = -1L } // no value present: the reserved codes start at 0
    // The reserved codes follow the largest present one: NaN's, then −0.0's.
    val missing = hi + 1
    val negCode = if (nan) hi + 2 else hi + 1
    val top     = if (negZero) negCode else if (nan) missing else hi
    if ((top - lo + 1) * RowsPerEntry > n) return raw
    i = 0
    while (i < n) {
      val v = values(i)
      if (v.isNaN) codes(i) = missing else if (isNegZero(v)) codes(i) = negCode
      i += 1
    }
    val packed = PackedInts.pack(codes, n, null)
    val table = Array.tabulate(packed.span.toInt + 1) { o =>
      val c = packed.base + o
      if (nan && c == missing) Double.NaN else if (negZero && c == negCode) -0.0 else c.toDouble / p
    }
    new PackedDoubles(k, packed, table, null)
  }
}

/** Integers by frame of reference (Abadi et al., SIGMOD 2006; Zukowski et
  * al., ICDE 2006): slot i holds `apply(i) - base` as an unsigned offset
  * in the narrowest of `byte`, `short` and `int` (`width` 1, 2 or 4
  * bytes) that holds the block's span, max − min. A span beyond 2³² − 1
  * takes `long` offsets (`width` 8); where max − min overflows they wrap,
  * and `base + offset` still gives each value back. The width comes from
  * the data: `long` is the widest width of this one store, not a second
  * representation. `span` is the largest offset (unsigned).
  */
final class PackedInts private (
    val base: Long,
    val span: Long,
    val width: Int,
    val size: Int,
    b1: Array[Byte],
    b2: Array[Short],
    b4: Array[Int],
    b8: Array[Long]
) extends Serializable {

  def apply(i: Int): Long = (width: @switch) match {
    case 1 => base + (b1(i) & 0xFF)
    case 2 => base + (b2(i) & 0xFFFF)
    case 4 => base + (b4(i) & 0xFFFFFFFFL)
    case _ => base + b8(i)
  }

  /** `out(k) = apply(rows(k)).toInt` for k < n, one loop per width: the
    * batch gather through which kernels read dictionary codes.
    */
  def ints(rows: Array[Int], n: Int, out: Array[Int]): Unit = {
    val b = base.toInt // truncation commutes with the sum
    var k = 0
    (width: @switch) match {
      case 1 => val a = b1; while (k < n) { out(k) = b + (a(rows(k)) & 0xFF); k += 1 }
      case 2 => val a = b2; while (k < n) { out(k) = b + (a(rows(k)) & 0xFFFF); k += 1 }
      case 4 => val a = b4; while (k < n) { out(k) = b + a(rows(k)); k += 1 }
      case _ => val a = b8; while (k < n) { out(k) = (base + a(rows(k))).toInt; k += 1 }
    }
  }

  /** `out(k) = table(apply(rows(k)) - base)` for k < n, one loop per
    * width: a per-block table over the offsets (at most `span` + 1 entries).
    */
  def lookup(rows: Array[Int], n: Int, table: Array[Int], out: Array[Int]): Unit = {
    var k = 0
    (width: @switch) match {
      case 1 => val a = b1; while (k < n) { out(k) = table(a(rows(k)) & 0xFF); k += 1 }
      case 2 => val a = b2; while (k < n) { out(k) = table(a(rows(k)) & 0xFFFF); k += 1 }
      case 4 => val a = b4; while (k < n) { out(k) = table(a(rows(k))); k += 1 }
      case _ => val a = b8; while (k < n) { out(k) = table(a(rows(k)).toInt); k += 1 }
    }
  }

  /** `out(k) = table(apply(rows(k)) - base)` for k < n, one loop per
    * width, over a table of doubles.
    */
  def lookup(rows: Array[Int], n: Int, table: Array[Double], out: Array[Double]): Unit = {
    var k = 0
    (width: @switch) match {
      case 1 => val a = b1; while (k < n) { out(k) = table(a(rows(k)) & 0xFF); k += 1 }
      case 2 => val a = b2; while (k < n) { out(k) = table(a(rows(k)) & 0xFFFF); k += 1 }
      case 4 => val a = b4; while (k < n) { out(k) = table(a(rows(k))); k += 1 }
      case _ => val a = b8; while (k < n) { out(k) = table(a(rows(k)).toInt); k += 1 }
    }
  }

  /** `out(k) = apply(rows(k)).toDouble` for k < n, one loop per width. */
  def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit = {
    var k = 0
    (width: @switch) match {
      case 1 => val a = b1; while (k < n) { out(k) = (base + (a(rows(k)) & 0xFF)).toDouble; k += 1 }
      case 2 => val a = b2; while (k < n) { out(k) = (base + (a(rows(k)) & 0xFFFF)).toDouble; k += 1 }
      case 4 => val a = b4; while (k < n) { out(k) = (base + (a(rows(k)) & 0xFFFFFFFFL)).toDouble; k += 1 }
      case _ => val a = b8; while (k < n) { out(k) = (base + a(rows(k))).toDouble; k += 1 }
    }
  }
}

object PackedInts {

  /** Packs the first `n` of `values`. Slots set in `nulls` (null for none)
    * are left out of the range and read back as its minimum.
    */
  def pack(values: Array[Long], n: Int, nulls: java.util.BitSet): PackedInts = {
    def present(i: Int) = nulls == null || !nulls.get(i)
    var lo = Long.MaxValue
    var hi = Long.MinValue
    var i  = 0
    while (i < n) {
      if (present(i)) { val v = values(i); if (v < lo) lo = v; if (v > hi) hi = v }
      i += 1
    }
    if (lo > hi) { lo = 0L; hi = 0L } // no value present
    def offset(i: Int): Long = if (present(i)) values(i) - lo else 0L
    val span = hi - lo // unsigned: exact even where it overflows a signed long
    def fits(max: Long) = java.lang.Long.compareUnsigned(span, max) <= 0
    i = 0
    if (fits(0xFFL)) {
      val a = new Array[Byte](n)
      while (i < n) { a(i) = offset(i).toByte; i += 1 }
      new PackedInts(lo, span, 1, n, a, null, null, null)
    } else if (fits(0xFFFFL)) {
      val a = new Array[Short](n)
      while (i < n) { a(i) = offset(i).toShort; i += 1 }
      new PackedInts(lo, span, 2, n, null, a, null, null)
    } else if (fits(0xFFFFFFFFL)) {
      val a = new Array[Int](n)
      while (i < n) { a(i) = offset(i).toInt; i += 1 }
      new PackedInts(lo, span, 4, n, null, null, a, null)
    } else {
      val a = new Array[Long](n)
      while (i < n) { a(i) = offset(i); i += 1 }
      new PackedInts(lo, span, 8, n, null, null, null, a)
    }
  }

  def apply(values: Array[Long], nulls: java.util.BitSet): PackedInts = pack(values, values.length, nulls)

  def apply(values: Array[Int], nulls: java.util.BitSet): PackedInts = apply(values.map(_.toLong), nulls)
}

/** Integers or dates: packed values plus an optional missing-value bitset. */
sealed trait PackedColumn extends Column {
  def values: PackedInts
  def nulls: java.util.BitSet

  final def size: Int                  = values.size
  final def isMissing(i: Int): Boolean = nulls != null && nulls.get(i)
  final def asDouble(i: Int): Double   = if (isMissing(i)) Double.NaN else values(i).toDouble

  final def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit = {
    values.doubles(rows, n, out)
    if (nulls != null) {
      var k = 0
      while (k < n) { if (nulls.get(rows(k))) out(k) = Double.NaN; k += 1 }
    }
  }
}

final case class LongColumn(values: PackedInts, nulls: java.util.BitSet) extends PackedColumn {
  def asString(i: Int): String = if (isMissing(i)) null else values(i).toString
}

object LongColumn {
  def apply(values: Array[Long], nulls: java.util.BitSet): LongColumn = LongColumn(PackedInts(values, nulls), nulls)
}

/** Epoch days; rendered back as ISO dates. */
final case class DateColumn(values: PackedInts, nulls: java.util.BitSet) extends PackedColumn {
  def asString(i: Int): String =
    if (isMissing(i)) null else java.time.LocalDate.ofEpochDay(values(i)).toString
}

object DateColumn {
  def apply(days: Array[Int], nulls: java.util.BitSet): DateColumn = DateColumn(PackedInts(days, nulls), nulls)
}

/** Dictionary-encoded strings; code -1 means missing. */
final case class StringColumn(dict: Array[String], codes: PackedInts) extends Column {
  def size: Int                  = codes.size
  def isMissing(i: Int): Boolean = codes(i) < 0
  def asDouble(i: Int): Double   = Double.NaN
  def asString(i: Int): String   = { val c = codes(i); if (c < 0) null else dict(c.toInt) }

  def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit =
    java.util.Arrays.fill(out, 0, n, Double.NaN)
}

object StringColumn {
  def apply(dict: Array[String], codes: Array[Int]): StringColumn = StringColumn(dict, PackedInts(codes, null))
}
