package repro.storage

import scala.annotation.switch

/** In-memory columnar representation of worker-cached data (paper §5.4/§6).
  *
  * Hillview keeps the data cache "organized by column to provide data
  * locality" and uses "Java arrays of base types to reduce pressure on the
  * GC"; string columns "use dictionary encoding for compression". This ADT
  * mirrors that: primitive arrays per column, dictionary-encoded strings,
  * and integers, dates and dictionary codes packed by `PackedInts` into
  * the narrowest primitive array that holds each block's range.
  *
  * Missing values: `DoubleColumn` encodes missing as NaN; `LongColumn` and
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

final case class DoubleColumn(values: Array[Double]) extends Column {
  def size: Int                  = values.length
  def isMissing(i: Int): Boolean = values(i).isNaN
  def asDouble(i: Int): Double   = values(i)
  def asString(i: Int): String   = if (isMissing(i)) null else values(i).toString

  def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit = {
    var k = 0
    while (k < n) { out(k) = values(rows(k)); k += 1 }
  }
}

/** Integers by frame of reference (Abadi et al., SIGMOD 2006; Zukowski et
  * al., ICDE 2006): slot i holds `apply(i) - base` as an unsigned offset
  * in the narrowest of `byte`, `short` and `int` (`width` 1, 2 or 4
  * bytes) that holds the block's span, max − min. A span beyond 2³² − 1
  * takes `long` offsets (`width` 8); where max − min overflows they wrap,
  * and `base + offset` still gives each value back. The width comes from
  * the data: `long` is the widest width of this one store, not a second
  * representation.
  */
final class PackedInts private (
    val base: Long,
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
      new PackedInts(lo, 1, n, a, null, null, null)
    } else if (fits(0xFFFFL)) {
      val a = new Array[Short](n)
      while (i < n) { a(i) = offset(i).toShort; i += 1 }
      new PackedInts(lo, 2, n, null, a, null, null)
    } else if (fits(0xFFFFFFFFL)) {
      val a = new Array[Int](n)
      while (i < n) { a(i) = offset(i).toInt; i += 1 }
      new PackedInts(lo, 4, n, null, null, a, null)
    } else {
      val a = new Array[Long](n)
      while (i < n) { a(i) = offset(i); i += 1 }
      new PackedInts(lo, 8, n, null, null, null, a)
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
