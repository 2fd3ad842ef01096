package repro.core

import repro.storage.{Column, RowBatches, StringColumn}
import scala.jdk.CollectionConverters._

/** How often each value of one column occurs among the rows of a cursor:
  * the one loop that counts a column's values per block. A `StringColumn`
  * is counted per dictionary code (§5.4; Abadi et al., SIGMOD 2006) into
  * `perCode`, missing in slot `dict.length`, so a sketch hashes or compares
  * each used entry once per block rather than once per row; any other
  * column counts its `asString` values in one map. `rows` is every row the
  * cursor yielded, missing ones included. A block's dictionary holds each
  * string once, so each value has one count.
  */
final class ValueCounts private (
    val rows: Long,
    dict: Array[String],
    val perCode: Array[Long],
    byValue: java.util.HashMap[String, java.lang.Long]
) {

  /** (value, count) for each present value counted at least once. */
  def iterator: Iterator[(String, Long)] =
    if (perCode == null) byValue.asScala.iterator.map { case (v, n) => (v, n.longValue) }
    else dict.indices.iterator.filter(perCode(_) > 0).map(code => (dict(code), perCode(code)))
}

object ValueCounts {

  def apply(c: Column, rb: RowBatches): ValueCounts = {
    var rows = 0L
    c match {
      case s: StringColumn =>
        val missing = s.dict.length
        val counts  = new Array[Long](missing + 1)
        val codes   = new Array[Int](RowBatches.Capacity)
        while (rb.next()) {
          s.codes.ints(rb.rows, rb.size, codes)
          var j = 0
          while (j < rb.size) { val code = codes(j); counts(if (code < 0) missing else code) += 1; j += 1 }
          rows += rb.size
        }
        new ValueCounts(rows, s.dict, counts, null)
      case _ =>
        val counts = new java.util.HashMap[String, java.lang.Long]()
        while (rb.next()) {
          val ids = rb.rows
          var j   = 0
          while (j < rb.size) {
            val v = c.asString(ids(j))
            if (v != null) counts.merge(v, 1L, (x, y) => x + y)
            j += 1
          }
          rows += rb.size
        }
        new ValueCounts(rows, null, null, counts)
    }
  }
}
