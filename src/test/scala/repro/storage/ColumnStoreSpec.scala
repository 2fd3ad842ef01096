package repro.storage

import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthData}
import repro.core.{LeafCtx, MomentsSketch, StreamingHistogramSketch, NumericBuckets}
import repro.engine.ExecutionTree

class ColumnStoreSpec extends SparkSpec {

  private lazy val li = SynthData.lineitem(spark, sf = 0.002, seed = 1)

  test("fromDataFrame preserves row count") {
    val t = ColumnStore.fromDataFrame("li", li)
    assert(t.numRows == li.count())
    t.drop()
  }

  test("column kinds map from Catalyst types") {
    val t = ColumnStore.fromDataFrame("li2", li, cache = false)
    val b = t.blocks.first()
    assert(b.column("l_orderkey").isInstanceOf[LongColumn])
    assert(b.column("l_quantity").isInstanceOf[DoubleColumn])
    assert(b.column("l_returnflag").isInstanceOf[StringColumn])
    assert(b.column("l_shipdate").isInstanceOf[DateColumn])
  }

  test("micropartitioning bounds block sizes") {
    val t = ColumnStore.fromDataFrame("li3", li.repartition(12), cache = false)
    val sizes = t.blocks.map(_.numRows).collect()
    assert(sizes.length == 12)
    assert(sizes.forall(_ <= 1000))
    assert(sizes.sum == li.count())
  }

  test("string dictionary encodes all values") {
    val t = ColumnStore.fromDataFrame("li4", li, cache = false)
    val dicts = t.blocks.map(_.column("l_returnflag").asInstanceOf[StringColumn].dict.toSet).collect()
    dicts.foreach(d => assert(d.subsetOf(Set("N", "R", "A"))))
  }

  test("null handling: nulls become missing values") {
    import spark.implicits._
    val df = Seq[(java.lang.Double, String)]((1.0, "a"), (null, null), (3.0, "c"))
      .toDF("x", "s")
    val t = ColumnStore.fromDataFrame("nulls", df, cache = false)
    val m = ExecutionTree.run(t, MomentsSketch("x"))
    assert(m.count == 3 && m.missing == 1)
  }

  test("sketch over the cached table equals DataFrame aggregation") {
    val t = ColumnStore.fromDataFrame("li5", li)
    val m = ExecutionTree.run(t, MomentsSketch("l_quantity"))
    val row = li.agg(count(lit(1)), min("l_quantity"), max("l_quantity"), sum("l_quantity")).head
    assert(m.count == row.getLong(0))
    assert(m.min == row.getDouble(1))
    assert(m.max == row.getDouble(2))
    assert(math.abs(m.sum - row.getDouble(3)) < 1e-6 * math.abs(row.getDouble(3)))
    t.drop()
  }

  test("filter produces a membership-set view with the right rows") {
    val t = ColumnStore.fromDataFrame("li6", li)
    val f = t.filter("q>25", new RowPred {
      def apply(b: ColumnarBlock, i: Int): Boolean = b.column("l_quantity").asDouble(i) > 25.0
    })
    assert(f.numRows == li.filter(col("l_quantity") > 25.0).count())
    assert(f.id.contains("filter:q>25"))
    f.drop(); t.drop()
  }

  test("derive adds a computed column usable by sketches") {
    val t = ColumnStore.fromDataFrame("li7", li)
    val d = t.derive("revenue", new RowFn {
      def apply(b: ColumnarBlock, i: Int): Double =
        b.column("l_extendedprice").asDouble(i) * (1.0 - b.column("l_discount").asDouble(i))
    })
    val m = ExecutionTree.run(d, MomentsSketch("revenue"))
    val exact = li.agg(sum(col("l_extendedprice") * (lit(1.0) - col("l_discount")))).head.getDouble(0)
    assert(math.abs(m.sum - exact) < 1e-6 * math.abs(exact))
    d.drop(); t.drop()
  }

  test("each non-empty partition is one block, in source, filtered and derived tables") {
    // The range's partitions 4–7 hold ids ≥ 500 and are filtered out.
    val df = spark.range(0, 1000, 1, 8).filter(col("id") < 500).select(col("id").cast("double") as "x")
    val nonEmpty = df.rdd.mapPartitions(it => Iterator.single(if (it.hasNext) 1 else 0)).collect().toSeq
    assert(nonEmpty == Seq(1, 1, 1, 1, 0, 0, 0, 0))
    val t = ColumnStore.fromDataFrame("parts", df).warm()
    val f = t.filter("odd", new RowPred {
      def apply(b: ColumnarBlock, i: Int): Boolean = b.column("x").asDouble(i) % 2 == 1
    }).warm()
    val d = f.derive("y", new RowFn {
      def apply(b: ColumnarBlock, i: Int): Double = -b.column("x").asDouble(i)
    }).warm()
    val rows = Seq(df.count(), df.filter(col("x") % 2 === 1).count())
    assert(Seq(t, f, d).map(_.numRows) == Seq(rows(0), rows(1), rows(1)))
    for (x <- Seq(t, f, d)) {
      assert(x.blocks.glom().map(_.length).collect().toSeq == nonEmpty, x.id)
      assert(x.blocks.map(_.rowCount.toLong).collect().sum == x.numRows, x.id)
    }
    assert(t.blocks.map(_.numRows.toLong).collect().sum == rows(0))
    d.drop(); f.drop(); t.drop()
  }

  test("strings survive the reuse of Catalyst rows: every cell, and each block's dictionary") {
    // Thousands of distinct strings of varying length over four partitions, some missing.
    val df = spark.range(0, 20000, 1, 4).select(expr(
      "case when id % 97 = 0 then null " +
        "else concat('v', cast(id * 7919 % 5003 as string), repeat('x', cast(id % 13 as int))) end") as "s")
    val blocks = ColumnStore.fromDataFrame("strings", df, cache = false).blocks.collect().toSeq
    assert(blocks.length == 4)
    def cells(b: ColumnarBlock) = (0 until b.numRows).map(b.column("s").asString)
    assert(blocks.flatMap(cells) == df.collect().toSeq.map(_.getString(0)))
    val distinct = df.select(spark_partition_id() as "p", col("s")).filter(col("s").isNotNull).distinct()
      .collect().groupBy(_.getInt(0)).map { case (p, rs) => p -> rs.map(_.getString(1)).toSet }
    for ((b, p) <- blocks.zipWithIndex) {
      val dict = b.column("s").asInstanceOf[StringColumn].dict.toSeq
      assert(dict == cells(b).filter(_ != null).distinct) // first-seen order
      assert(dict.toSet == distinct(p), s"block $p")
    }
    assert(distinct.values.map(_.size).sum > 4 * 1000)
  }

  test("fromParquet reads cold data without caching") {
    val dir = java.nio.file.Files.createTempDirectory("repro-pq").toString
    val path = s"$dir/li.parquet"
    li.write.mode("overwrite").parquet(path)
    val t = ColumnStore.fromParquet("cold", spark, path, Seq("l_quantity", "l_returnflag"))
    assert(t.numRows == li.count())
    val hist = ExecutionTree.run(t, StreamingHistogramSketch("l_quantity", NumericBuckets(0, 60, 10)))
    assert(hist.counts.sum > 0)
  }

  test("buildBlock rejects unsupported types") {
    import spark.implicits._
    val df = Seq((1, Array(1, 2))).toDF("a", "arr")
    intercept[Exception] {
      ColumnStore.fromDataFrame("bad", df, cache = false).numRows
    }
  }
}
