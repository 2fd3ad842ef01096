package repro.core

import repro.storage.{Column, DoubleColumn, PackedColumn, PackedInts, StringColumn}

/** Maps a cell to a bucket index in [0, count), or -1 when out of range /
  * missing. Charts are parameterized by one of these per axis; the number
  * of buckets is bounded by what the screen can show (§4.2: "compute only
  * what you can display").
  */
sealed trait BucketSpec extends Serializable {
  def count: Int
  /** Bucket of cell `i` of `c`; -1 if not bucketable. */
  def indexOf(c: Column, i: Int): Int
  /** These buckets bound to one block's column, resolved once per block. */
  def bind(column: Column): BoundBuckets = new BoundBuckets.Cells(this, column)
  /** Human-readable label of bucket `b` (for rendered tables). */
  def label(b: Int): String
  def params: String
}

/** A `BucketSpec` bound to one column: `fill` buckets a whole batch of row
  * ids in a loop specialised to the column type, so chart sketches do no
  * column lookup, virtual cell call or string comparison per row.
  */
abstract class BoundBuckets {
  /** `out(k)` = bucket of row `rows(k)` for k < n: in [0, count),
    * `Outside` (-1) when outside the buckets, `Missing` (-2) when the cell
    * is missing.
    */
  def fill(rows: Array[Int], n: Int, out: Array[Int]): Unit
}

object BoundBuckets {
  val Outside = -1
  val Missing = -2

  /** Row at a time through the cell views: pairings without a faster path. */
  private[core] final class Cells(spec: BucketSpec, column: Column) extends BoundBuckets {
    def fill(rows: Array[Int], n: Int, out: Array[Int]): Unit = {
      var k = 0
      while (k < n) {
        val i = rows(k)
        out(k) = if (column.isMissing(i)) Missing else spec.indexOf(column, i)
        k += 1
      }
    }
  }

  /** Numeric buckets over a raw double column's primitive array. */
  private[core] final class Doubles(spec: NumericBuckets, values: Array[Double]) extends BoundBuckets {
    def fill(rows: Array[Int], n: Int, out: Array[Int]): Unit = {
      var k = 0
      while (k < n) {
        val x = values(rows(k))
        out(k) = if (x.isNaN) Missing else spec.indexOf(x)
        k += 1
      }
    }
  }

  /** Numeric buckets over a numeric column's decoded batch. */
  private[core] final class Numeric(spec: NumericBuckets, column: Column) extends BoundBuckets {
    private var xs = new Array[Double](0)
    def fill(rows: Array[Int], n: Int, out: Array[Int]): Unit = {
      if (xs.length < n) xs = new Array[Double](n)
      column.doubles(rows, n, xs)
      var k = 0
      while (k < n) {
        val x = xs(k)
        out(k) = if (x.isNaN) Missing else spec.indexOf(x)
        k += 1
      }
    }
  }

  /** Buckets over packed integer codes: `table(offset)` is the bucket of
    * code `codes.base + offset`, computed once per block, so a batch is one
    * gather through the table. A code that means missing (a dictionary's
    * -1, a scaled double's missing code) has the entry `Missing`, and so
    * do rows set in `nulls` (null for none). Binds dictionary codes (an
    * entry per dictionary code), scaled doubles (an entry per decode-table
    * entry) and narrow packed integers (an entry per value in the block's
    * range).
    */
  private[core] final class Coded(table: Array[Int], codes: PackedInts, nulls: java.util.BitSet)
      extends BoundBuckets {
    def fill(rows: Array[Int], n: Int, out: Array[Int]): Unit = {
      codes.lookup(rows, n, table, out)
      if (nulls != null) {
        var k = 0
        while (k < n) { if (nulls.get(rows(k))) out(k) = Missing; k += 1 }
      }
    }
  }

  private[core] object Coded {
    /** Largest table a packed integer column is bound through. */
    val MaxTable = 65536

    def apply(codes: PackedInts, nulls: java.util.BitSet)(bucketOf: Long => Int): Coded =
      new Coded(Array.tabulate(codes.span.toInt + 1)(off => bucketOf(codes.base + off)), codes, nulls)

    /** Whether a table over `codes` has at most min(`MaxTable`, rows)
      * entries, so building it costs less than the rows it replaces
      * arithmetic on.
      */
    def fits(codes: PackedInts): Boolean = codes.span < math.min(MaxTable, codes.size)
  }
}

/** B equi-sized numeric intervals over [min, max]; max is folded into the
  * last bucket so the range sketch's observed maximum is representable.
  */
final case class NumericBuckets(min: Double, max: Double, count: Int) extends BucketSpec {
  require(count > 0, "need at least one bucket")
  require(max >= min, s"empty range [$min, $max]")
  private val width = if (max > min) (max - min) / count else 1.0

  def indexOf(x: Double): Int =
    if (x.isNaN || x < min || x > max) -1
    else math.min(((x - min) / width).toInt, count - 1)

  def indexOf(c: Column, i: Int): Int = indexOf(c.asDouble(i))

  /** Non-missing strings have no numeric value (-1), so they keep the
    * cell path. A scaled double goes through the buckets of its decode
    * table, a packed integer column whose range is narrow through a table
    * of its values' buckets; raw doubles bucket their array.
    */
  override def bind(column: Column): BoundBuckets = column match {
    case _: StringColumn                => super.bind(column)
    case DoubleColumn(v) if !v.isScaled => new BoundBuckets.Doubles(this, v.raw)
    case DoubleColumn(v)                =>
      new BoundBuckets.Coded(v.table.map(x => if (x.isNaN) BoundBuckets.Missing else indexOf(x)), v.codes, null)
    case p: PackedColumn                =>
      if (BoundBuckets.Coded.fits(p.values)) BoundBuckets.Coded(p.values, p.nulls)(c => indexOf(c.toDouble))
      else new BoundBuckets.Numeric(this, column)
  }

  def boundary(b: Int): Double = min + b * width
  def label(b: Int): String    = f"[${boundary(b)}%.4g, ${boundary(b + 1)}%.4g)"
  def params: String           = f"num($min%.6g,$max%.6g,$count)"
}

/** Buckets over string values: a dictionary-encoded column is bound by
  * bucketing each dictionary entry once (§5.4; Abadi et al., SIGMOD 2006).
  */
sealed trait StringBuckets extends BucketSpec {
  def indexOf(s: String): Int

  def indexOf(c: Column, i: Int): Int = indexOf(c.asString(i))

  override def bind(column: Column): BoundBuckets = column match {
    case s: StringColumn =>
      BoundBuckets.Coded(s.codes, null)(c => if (c < 0) BoundBuckets.Missing else indexOf(s.dict(c.toInt)))
    case _               => super.bind(column)
  }
}

/** Buckets of contiguous strings in alphabetical order, defined by sorted
  * left boundaries (paper App. B.1: used when a string column has more
  * than 50 distinct values). Bucket b covers [boundaries(b), boundaries(b+1)).
  */
final case class StringBoundaryBuckets(boundaries: Array[String]) extends StringBuckets {
  require(boundaries.nonEmpty, "need at least one boundary")
  def count: Int = boundaries.length

  def indexOf(s: String): Int = {
    if (s == null || s < boundaries(0)) return -1
    var lo = 0
    var hi = boundaries.length - 1
    while (lo < hi) { // last boundary <= s
      val mid = (lo + hi + 1) >>> 1
      if (boundaries(mid) <= s) lo = mid else hi = mid - 1
    }
    lo
  }

  def label(b: Int): String = boundaries(b)
  def params: String        = s"strb(${boundaries.length}:${boundaries.headOption.getOrElse("")})"
}

/** One bucket per distinct value (≤ 50 distinct strings — paper App. B.1). */
final case class ExactStringBuckets(values: Array[String]) extends StringBuckets {
  private val index = values.zipWithIndex.toMap
  def count: Int    = values.length

  def indexOf(s: String): Int = if (s == null) -1 else index.getOrElse(s, -1)

  def label(b: Int): String = values(b)
  def params: String        = s"strx(${values.mkString(",")})"
}
