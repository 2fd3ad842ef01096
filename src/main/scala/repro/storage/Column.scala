package repro.storage

/** In-memory columnar representation of worker-cached data (paper §5.4/§6).
  *
  * Hillview keeps the data cache "organized by column to provide data
  * locality" and uses "Java arrays of base types to reduce pressure on the
  * GC"; string columns "use dictionary encoding for compression". This ADT
  * mirrors that: primitive arrays per column, dictionary-encoded strings.
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

final case class LongColumn(values: Array[Long], nulls: java.util.BitSet) extends Column {
  def size: Int                  = values.length
  def isMissing(i: Int): Boolean = nulls != null && nulls.get(i)
  def asDouble(i: Int): Double   = if (isMissing(i)) Double.NaN else values(i).toDouble
  def asString(i: Int): String   = if (isMissing(i)) null else values(i).toString

  def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit = {
    var k = 0
    if (nulls == null) while (k < n) { out(k) = values(rows(k)).toDouble; k += 1 }
    else while (k < n) {
      val i = rows(k)
      out(k) = if (nulls.get(i)) Double.NaN else values(i).toDouble
      k += 1
    }
  }
}

/** Epoch days; rendered back as ISO dates. */
final case class DateColumn(days: Array[Int], nulls: java.util.BitSet) extends Column {
  def size: Int                  = days.length
  def isMissing(i: Int): Boolean = nulls != null && nulls.get(i)
  def asDouble(i: Int): Double   = if (isMissing(i)) Double.NaN else days(i).toDouble
  def asString(i: Int): String =
    if (isMissing(i)) null else java.time.LocalDate.ofEpochDay(days(i).toLong).toString

  def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit = {
    var k = 0
    if (nulls == null) while (k < n) { out(k) = days(rows(k)).toDouble; k += 1 }
    else while (k < n) {
      val i = rows(k)
      out(k) = if (nulls.get(i)) Double.NaN else days(i).toDouble
      k += 1
    }
  }
}

/** Dictionary-encoded strings; `codes(i) == -1` means missing. */
final case class StringColumn(dict: Array[String], codes: Array[Int]) extends Column {
  def size: Int                  = codes.length
  def isMissing(i: Int): Boolean = codes(i) < 0
  def asDouble(i: Int): Double   = Double.NaN
  def asString(i: Int): String   = if (codes(i) < 0) null else dict(codes(i))

  def doubles(rows: Array[Int], n: Int, out: Array[Double]): Unit =
    java.util.Arrays.fill(out, 0, n, Double.NaN)
}
