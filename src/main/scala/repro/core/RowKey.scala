package repro.core

import repro.storage.{Column, ColumnarBlock, RowBatches, StringColumn}
import scala.jdk.CollectionConverters._

/** One cell of a sort key. Numeric columns (ints, doubles, dates) compare
  * numerically; strings lexicographically; missing values sort last —
  * matching spreadsheet sort semantics (§3.3).
  */
sealed trait KeyCell extends Serializable {
  def render: String
}
case object NullCell extends KeyCell { def render = "∅" }
final case class NumCell(v: Double) extends KeyCell {
  def render: String = if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
}
final case class StrCell(v: String) extends KeyCell { def render: String = v }

object KeyCell {
  /** Total order within a single column: numbers < strings < null. */
  val ordering: Ordering[KeyCell] = (a: KeyCell, b: KeyCell) =>
    (a, b) match {
      case (NullCell, NullCell)       => 0
      case (NullCell, _)              => 1 // nulls last
      case (_, NullCell)              => -1
      case (NumCell(x), NumCell(y))   => java.lang.Double.compare(x, y)
      case (StrCell(x), StrCell(y))   => x.compareTo(y)
      case (NumCell(_), StrCell(_))   => -1
      case (StrCell(_), NumCell(_))   => 1
    }

  /** `ordering` on two string cells given as values, null meaning missing. */
  def compareStrings(x: String, y: String): Int =
    if (x == null) { if (y == null) 0 else 1 } else if (y == null) -1 else x.compareTo(y)

  def of(c: Column, i: Int): KeyCell =
    if (c.isMissing(i)) NullCell
    else c match {
      case _: StringColumn => StrCell(c.asString(i))
      case _               => NumCell(c.asDouble(i))
    }
}

/** A column participating in a sort order. */
final case class SortCol(name: String, ascending: Boolean = true)

object SortCol {
  /** Each column's direction as a sign: 1 ascending, −1 descending. */
  def signs(sortCols: Seq[SortCol]): Array[Int] = sortCols.map(sc => if (sc.ascending) 1 else -1).toArray
}

/** The visible tuple of a row under a column selection: the sort columns'
  * values in order. Duplicate tuples are aggregated with counts in the
  * tabular view (§3.3 "aggregate duplicates and show repetition counts").
  */
final case class RowKey(cells: Vector[KeyCell]) extends Serializable {
  def render: String = cells.map(_.render).mkString("|")
}

object RowKey {
  def of(block: ColumnarBlock, cols: Seq[String], i: Int): RowKey =
    RowKey(cols.iterator.map(c => KeyCell.of(block.column(c), i)).toVector)

  /** Lexicographic ordering honoring each column's direction. */
  def ordering(sortCols: Seq[SortCol]): Ordering[RowKey] = {
    val signs = SortCol.signs(sortCols)
    (a: RowKey, b: RowKey) => {
      var i = 0
      var cmp = 0
      while (cmp == 0 && i < a.cells.length && i < b.cells.length) {
        cmp = KeyCell.ordering.compare(a.cells(i), b.cells(i)) * (if (i < signs.length) signs(i) else 1)
        i += 1
      }
      if (cmp != 0) cmp else a.cells.length - b.cells.length
    }
  }
}

/** The bounded scan of next items and find text: the `k` smallest distinct
  * keys strictly after `start` (none when null) under `sortCols`, with
  * their counts, among the rows offered. `cols` are the sort columns.
  *
  * A row is first tested on its lead key, the first column as a primitive:
  * sign × value, with a missing value after every number in the column's
  * order (+∞ ascending, −∞ descending). A row whose lead key lies strictly
  * outside [lo, hi] is dropped at once: lo is the start key's, hi the k-th
  * key's once k keys are held. Wherever two lead keys differ they agree
  * with `KeyCell.ordering` × sign; cells whose keys tie although they
  * differ (−0.0 and 0.0, +∞ and a missing value) fall inside the bounds
  * and get the full comparison. A string column has no primitive key:
  * every key of its rows is 0 and every bound infinite. A row inside the
  * bounds takes one allocation-free comparison with the start and the k-th
  * key, and a RowKey only if it enters the top k as a new key.
  */
private[core] final class NextRows(cols: Array[Column], sortCols: Seq[SortCol], k: Int, start: RowKey) {
  private[this] val signs   = SortCol.signs(sortCols)
  private[this] val lead    = if (cols.nonEmpty && !cols(0).isInstanceOf[StringColumn]) cols(0) else null
  private[this] val missing = if (lead == null) 0.0 else signs(0) * Double.PositiveInfinity
  private[this] val keys    = new Array[Double](RowBatches.Capacity)
  private[this] val top     = new java.util.TreeMap[RowKey, Long](RowKey.ordering(sortCols))
  private[this] val lo      = bound(start, Double.NegativeInfinity)
  private[this] var hi      = Double.PositiveInfinity

  /** Offers every row of the batch `rb` holds. */
  def offerBatch(rb: RowBatches): Unit = {
    val rows = rb.rows
    if (lead != null) lead.doubles(rows, rb.size, keys)
    var j = 0
    while (j < rb.size) { if (lead == null || within(keys(j))) consider(rows(j)); j += 1 }
  }

  /** Offers row `i`. */
  def offer(i: Int): Unit = if (lead == null || within(lead.asDouble(i))) consider(i)

  /** The keys held, in order, with their counts. */
  def rows: Vector[(RowKey, Long)] =
    top.entrySet.asScala.iterator.map(e => (e.getKey, e.getValue.longValue)).toVector

  /** The least key held; null when none is. */
  def first: RowKey = if (top.isEmpty) null else top.firstKey

  /** Whether a lead value's key lies in [lo, hi]; small enough to inline
    * into the row loops, which call `consider` only for rows inside.
    */
  private def within(x: Double): Boolean = { val y = keyOf(x); lo <= y && y <= hi }

  private def consider(i: Int): Unit =
    if (start == null || compareRowTo(i, start) > 0) {
      val c = if (top.size < k) -1 else compareRowTo(i, top.lastKey)
      if (c <= 0) { // a tie with the k-th key counts without a new RowKey
        val key = if (c == 0) top.lastKey else RowKey(cols.iterator.map(KeyCell.of(_, i)).toVector)
        top.merge(key, 1L, (a, b) => a + b)
        if (top.size > k) top.pollLastEntry()
        if (top.size == k) hi = bound(top.lastKey, Double.PositiveInfinity)
      }
    }

  /** Row `i` against `key` without making a RowKey; agrees in sign with
    * `RowKey.ordering` applied to the row's key and `key`.
    */
  private def compareRowTo(i: Int, key: RowKey): Int = {
    var j = 0
    while (j < cols.length && j < key.cells.length) {
      val c    = cols(j)
      val cell = key.cells(j)
      val cmp  =
        if (c.isMissing(i)) { if (cell eq NullCell) 0 else 1 }
        else cell match {
          case NullCell   => -1
          case NumCell(v) =>
            val x = c.asDouble(i)
            if (x.isNaN) 1 else java.lang.Double.compare(x, v) // a string row sorts after numbers
          case StrCell(s) => c match {
            case _: StringColumn => c.asString(i).compareTo(s)
            case _               => -1 // a numeric row sorts before strings
          }
        }
      if (cmp != 0) return cmp * signs(j)
      j += 1
    }
    cols.length - key.cells.length
  }

  private def keyOf(x: Double): Double = if (x.isNaN) missing else signs(0) * x

  /** Lead key of `key`'s first cell; `none` without one or for a string. */
  private def bound(key: RowKey, none: Double): Double =
    if (key == null || lead == null || key.cells.isEmpty) none
    else key.cells(0) match {
      case NumCell(v) => keyOf(v)
      case NullCell   => missing
      case StrCell(_) => none // a string sorts after every number and before the missing value
    }
}
