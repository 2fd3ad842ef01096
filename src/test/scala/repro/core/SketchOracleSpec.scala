package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.engine.ExecutionTree
import repro.storage.ColumnStore

/** Exact vizketches checked against DuckDB over the same input — a wrong
  * merge, bucket boundary, or membership bug shows up as a row diff, not
  * just "it ran".
  */
class SketchOracleSpec extends SparkSpec {

  private lazy val li    = SynthData.lineitem(spark, sf = 0.002, seed = 3).cache()
  private lazy val table = ColumnStore.fromDataFrame("li-oracle", li.repartition(4)).warm()

  private def toDf(pairs: Seq[(Int, Long)], cols: (String, String)) = {
    import spark.implicits._
    pairs.toDF(cols._1, cols._2)
  }

  test("streaming histogram equals DuckDB GROUP BY bucketing") {
    val b    = NumericBuckets(1.0, 51.0, 10)
    val hist = ExecutionTree.run(table, StreamingHistogramSketch("l_quantity", b))
    val sparkDf = toDf(hist.counts.zipWithIndex.map { case (c, i) => (i, c) }.filter(_._2 > 0).toSeq,
      ("bucket", "cnt"))
    Oracle.assertEquivalent(sparkDf,
      s"""SELECT LEAST(CAST(FLOOR((CAST(l_quantity AS DOUBLE) - 1.0) / 5.0) AS INTEGER), 9) AS bucket,
         |       COUNT(*) AS cnt
         |FROM lineitem WHERE CAST(l_quantity AS DOUBLE) BETWEEN 1.0 AND 51.0
         |GROUP BY bucket""".stripMargin,
      "lineitem" -> li)
  }

  test("heatmap equals DuckDB 2-D GROUP BY") {
    val bx = NumericBuckets(1.0, 51.0, 5)
    val by = NumericBuckets(0.0, 0.10, 5)
    val hm = ExecutionTree.run(table, HeatmapSketch("l_quantity", bx, "l_discount", by))
    import spark.implicits._
    val sparkDf = (for (x <- 0 until 5; y <- 0 until 5 if hm.cell(x, y) > 0)
      yield (x, y, hm.cell(x, y))).toDF("bx", "by", "cnt")
    Oracle.assertEquivalent(sparkDf,
      s"""SELECT LEAST(CAST(FLOOR((CAST(l_quantity AS DOUBLE) - 1.0) / 10.0) AS INTEGER), 4) AS bx,
         |       LEAST(CAST(FLOOR(CAST(l_discount AS DOUBLE) / 0.02) AS INTEGER), 4) AS by,
         |       COUNT(*) AS cnt
         |FROM lineitem
         |WHERE CAST(l_quantity AS DOUBLE) BETWEEN 1.0 AND 51.0
         |  AND CAST(l_discount AS DOUBLE) BETWEEN 0.0 AND 0.10
         |GROUP BY bx, by""".stripMargin,
      "lineitem" -> li)
  }

  test("next-items equals DuckDB GROUP BY / ORDER BY / LIMIT") {
    val k  = 15
    val nx = ExecutionTree.run(table, NextItemsSketch(Seq(SortCol("l_quantity")), k))
    import spark.implicits._
    val sparkDf = nx.rows.map { case (key, c) =>
      (key.cells.head.asInstanceOf[NumCell].v, c)
    }.toDF("q", "cnt")
    Oracle.assertEquivalent(sparkDf,
      s"""SELECT CAST(l_quantity AS DOUBLE) AS q, COUNT(*) AS cnt
         |FROM lineitem GROUP BY q ORDER BY q LIMIT $k""".stripMargin,
      "lineitem" -> li)
  }

  test("stacked histogram equals DuckDB two-level GROUP BY") {
    val bx = NumericBuckets(1.0, 51.0, 5)
    val yb = ExactStringBuckets(Array("A", "N", "R"))
    val st = ExecutionTree.run(table, StackedHistogramSketch("l_quantity", bx, "l_returnflag", yb))
    import spark.implicits._
    val sparkDf = (for (x <- 0 until 5; y <- 0 until 3 if st.cell(x, y) > 0)
      yield (x, yb.label(y), st.cell(x, y))).toDF("bucket", "flag", "cnt")
    Oracle.assertEquivalent(sparkDf,
      s"""SELECT LEAST(CAST(FLOOR((CAST(l_quantity AS DOUBLE) - 1.0) / 10.0) AS INTEGER), 4) AS bucket,
         |       l_returnflag AS flag, COUNT(*) AS cnt
         |FROM lineitem WHERE CAST(l_quantity AS DOUBLE) BETWEEN 1.0 AND 51.0
         |GROUP BY bucket, flag""".stripMargin,
      "lineitem" -> li)
  }

  test("Misra-Gries with ample counters equals DuckDB GROUP BY") {
    val hh = ExecutionTree.run(table, MisraGriesSketch("l_returnflag", 100))
    import spark.implicits._
    val sparkDf = hh.counts.toSeq.toDF("flag", "cnt")
    Oracle.assertEquivalent(sparkDf,
      "SELECT l_returnflag AS flag, COUNT(*) AS cnt FROM lineitem GROUP BY flag",
      "lineitem" -> li)
  }

  test("moments equal DuckDB aggregates") {
    val m = ExecutionTree.run(table, MomentsSketch("l_extendedprice"))
    import spark.implicits._
    // Exact fields go through the oracle; the floating sum is checked with
    // a relative tolerance since summation order differs across engines.
    val sparkDf = Seq((m.count, m.min, m.max)).toDF("n", "mn", "mx")
    Oracle.assertEquivalent(sparkDf,
      """SELECT COUNT(*) AS n, MIN(CAST(l_extendedprice AS DOUBLE)) AS mn,
        |       MAX(CAST(l_extendedprice AS DOUBLE)) AS mx
        |FROM lineitem""".stripMargin,
      "lineitem" -> li)
    val exactSum = li.agg(org.apache.spark.sql.functions.sum("l_extendedprice")).head.getDouble(0)
    assert(math.abs(m.sum - exactSum) < 1e-9 * math.abs(exactSum))
  }

  test("find-text count equals DuckDB filter count") {
    val ft = ExecutionTree.run(table,
      FindTextSketch("l_returnflag", "R", ExactMatch, caseSensitive = true, Seq(SortCol("l_returnflag"))))
    import spark.implicits._
    val sparkDf = Seq(Tuple1(ft.matches)).toDF("n")
    Oracle.assertEquivalent(sparkDf,
      "SELECT COUNT(*) AS n FROM lineitem WHERE l_returnflag = 'R'",
      "lineitem" -> li)
  }

  test("filtered table sketches agree with DuckDB WHERE") {
    val f = table.filter("cheap", new repro.storage.RowPred {
      def apply(b: repro.storage.ColumnarBlock, i: Int): Boolean =
        b.column("l_extendedprice").asDouble(i) < 10000.0
    })
    val m = ExecutionTree.run(f, MomentsSketch("l_quantity"))
    import spark.implicits._
    val sparkDf = Seq((m.count, m.sum)).toDF("n", "s")
    Oracle.assertEquivalent(sparkDf,
      """SELECT COUNT(*) AS n, SUM(CAST(l_quantity AS DOUBLE)) AS s
        |FROM lineitem WHERE CAST(l_extendedprice AS DOUBLE) < 10000.0""".stripMargin,
      "lineitem" -> li)
    f.drop()
  }
}
