package perfbench

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._

/** Exact answers computed at set-up, off the clock, with Spark DataFrame
  * aggregates over the same generated rows the program ingests. Checks
  * compare each action's result against these; they never call the
  * program's sketches.
  */
final class Reference(df: DataFrame) {

  val rows: Long = df.count()

  /** Value → row count for each (column, condition) pair, counting only the
    * rows where the condition holds; a null value is the key null. One
    * grouping-sets aggregate computes every pair.
    */
  def counts(specs: (String, Column)*): IndexedSeq[Map[Any, Long]] = {
    val n     = specs.length
    val names = (0 until n).flatMap(i => Seq(s"v$i", s"f$i"))
    df.select(specs.zipWithIndex.flatMap { case ((c, cond), i) =>
      Seq(col(c).as(s"v$i"), coalesce(cond, lit(false)).as(s"f$i"))
    }: _*).createOrReplaceTempView("perfbench_reference")
    val result = df.sparkSession.sql(
      s"SELECT grouping_id(${names.mkString(", ")}), ${names.mkString(", ")}, count(*) " +
        s"FROM perfbench_reference GROUP BY GROUPING SETS (${(0 until n).map(i => s"(v$i, f$i)").mkString(", ")})")
      .collect()
    // grouping_id sets a bit, most significant first, for each column a set leaves out.
    val all = (1L << (2 * n)) - 1
    (0 until n).map { i =>
      val id = all & ~(3L << (2 * (n - 1 - i)))
      result.iterator
        .filter(r => r.getAs[Number](0).longValue == id && r.getBoolean(2 + 2 * i))
        .map(r => (if (r.isNullAt(1 + 2 * i)) null else r.get(1 + 2 * i)) -> r.getLong(1 + 2 * n))
        .toMap
    }
  }

  def counts(column: String): Map[Any, Long] = counts(column -> lit(true)).head

  /** The first `n` distinct tuples of `cols` in ascending order, nulls last,
    * with their counts — the reference for a multi-column page. It reads a
    * top-k of the sorted rows, which must hold more than `n` distinct tuples
    * so that every copy of the n-th one precedes the cut.
    */
  def firstKeys(cols: Seq[String], n: Int): IndexedSeq[(Seq[Any], Long)] = {
    val top = df.select(cols.map(col): _*).orderBy(cols.map(c => col(c).asc_nulls_last): _*)
      .limit(TopRows).collect()
      .map(r => cols.indices.map(i => cell(r, i)).toSeq)
    val runs = top.foldLeft(Vector.empty[(Seq[Any], Long)]) {
      case (acc, k) if acc.nonEmpty && acc.last._1 == k => acc.init :+ (k -> (acc.last._2 + 1))
      case (acc, k)                                     => acc :+ (k -> 1L)
    }
    require(runs.length > n, s"the first $TopRows rows by ${cols.mkString(",")} hold only ${runs.length} tuples")
    runs.take(n)
  }

  private val TopRows = 4096

  private def cell(r: Row, i: Int): Any =
    if (r.isNullAt(i)) null
    else r.get(i) match {
      case n: java.lang.Number => n.doubleValue
      case s: String           => s
      case d: java.sql.Date    => d.toLocalDate.toEpochDay.toDouble
      case o                   => o
    }
}

object Reference {

  /** Exact counts per bucket of equal-width numeric buckets over [min, max],
    * the maximum folded into the last bucket (the tabular definition of a
    * histogram bar), from a value → count map.
    */
  def histogram(counts: Map[Any, Long], min: Double, max: Double, buckets: Int): Array[Long] = {
    val out   = new Array[Long](buckets)
    val width = if (max > min) (max - min) / buckets else 1.0
    counts.foreach {
      case (null, _) =>
      case (v, c) =>
        val x = v.asInstanceOf[java.lang.Number].doubleValue
        if (x >= min && x <= max) out(math.min(((x - min) / width).toInt, buckets - 1)) += c
    }
    out
  }

  /** One column's distinct values in ascending order, nulls last, with counts. */
  def sortedKeys(counts: Map[Any, Long]): IndexedSeq[(Seq[Any], Long)] = {
    def norm(v: Any): Any = v match {
      case n: java.lang.Number => n.doubleValue
      case o                   => o
    }
    val order: Ordering[Any] = (a: Any, b: Any) => (a, b) match {
      case (null, null)         => 0
      case (null, _)            => 1
      case (_, null)            => -1
      case (x: Double, y: Double) => java.lang.Double.compare(x, y)
      case (x: String, y: String) => x.compareTo(y)
      case (x, y)               => x.toString.compareTo(y.toString)
    }
    counts.toIndexedSeq.map { case (k, c) => (norm(k), c) }.sortBy(_._1)(order).map { case (k, c) => (Seq(k), c) }
  }

  def numericRange(counts: Map[Any, Long]): (Double, Double) = {
    val xs = counts.keys.collect { case n: java.lang.Number => n.doubleValue }
    (xs.min, xs.max)
  }

  def present(counts: Map[Any, Long]): Long = counts.collect { case (k, c) if k != null => c }.sum
}
