package repro.core

import repro.storage.{Column, ColumnarBlock, RowBatches, StringColumn}

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

  /** Compare row `i` of the given columns against `key` under the sort
    * signs WITHOUT materializing a RowKey — the hot reject path of the
    * next-items and find-text scans, which discard almost every row of a
    * big table against the current K-th or best key. Agrees in sign with
    * `ordering` applied to `RowKey.of(block, cols, i)` and `key`.
    */
  def compareRowTo(cols: Array[Column], i: Int, key: RowKey,
                   signs: Array[Int]): Int = {
    var j = 0
    while (j < cols.length && j < key.cells.length) {
      val c = cols(j)
      val cell = key.cells(j)
      val cmp =
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
      val signed = cmp * (if (j < signs.length) signs(j) else 1)
      if (signed != 0) return signed
      j += 1
    }
    cols.length - key.cells.length
  }

  /** Lexicographic ordering honoring each column's direction. */
  def ordering(sortCols: Seq[SortCol]): Ordering[RowKey] = {
    val signs = sortCols.map(sc => if (sc.ascending) 1 else -1).toArray
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

/** A block's first sort column as primitive keys, so the next-items and
  * find-text scans can drop a row whose key lies strictly outside
  * [lo, hi] without comparing it to a `RowKey`.
  *
  * A row's key is sign × value, with a missing value after every number in
  * the column's order: +∞ ascending, −∞ descending. Wherever two keys
  * differ, this agrees with `KeyCell.ordering` × sign on the first column;
  * values whose keys tie although their cells differ (−0.0 and 0.0, +∞
  * and a missing value) fall inside the bounds and get the full
  * comparison. A string column has no primitive key: every key of its
  * rows is 0 and every bound infinite.
  */
private[core] final class LeadKeys(c: Column, ascending: Boolean) {
  private[this] val bounded = c != null && !c.isInstanceOf[StringColumn]
  private[this] val sign    = if (ascending) 1.0 else -1.0
  private[this] val missing = if (ascending) Double.PositiveInfinity else Double.NegativeInfinity

  /** Keys of the rows of the last `load`ed batch. */
  val keys: Array[Double] = new Array[Double](RowBatches.Capacity)

  def load(rb: RowBatches): Unit = if (bounded) {
    c.doubles(rb.rows, rb.size, keys)
    var k = 0
    while (k < rb.size) { keys(k) = keyOf(keys(k)); k += 1 }
  }

  /** Key of row `i`. */
  def key(i: Int): Double = if (bounded) keyOf(c.asDouble(i)) else 0.0

  /** Least key of a row that can sort after `start`; −∞ without a start. */
  def lo(start: RowKey): Double = bound(start, Double.NegativeInfinity)

  /** Greatest key of a row that can sort at or before `last`; +∞ without one. */
  def hi(last: RowKey): Double = bound(last, Double.PositiveInfinity)

  private def keyOf(x: Double): Double = if (x.isNaN) missing else sign * x

  private def bound(key: RowKey, none: Double): Double =
    if (key == null || !bounded || key.cells.isEmpty) none
    else key.cells(0) match {
      case NumCell(v) => keyOf(v)
      case NullCell   => missing
      case StrCell(_) => none // a string sorts after every number and before the missing value
    }
}

private[core] object LeadKeys {
  /** Keys of the first of `cols`, the sort columns of `sortCols`. */
  def apply(cols: Array[Column], sortCols: Seq[SortCol]): LeadKeys =
    new LeadKeys(cols.headOption.orNull, sortCols.headOption.forall(_.ascending))
}
