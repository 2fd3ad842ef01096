package repro.core

import repro.{SparkSpec, SynthData}
import repro.engine.ExecutionTree
import repro.storage.{ColumnStore, ColumnarBlock, RowPred}

class SaveTableSpec extends SparkSpec {

  private lazy val li    = SynthData.lineitem(spark, sf = 0.001, seed = 4).cache()
  private lazy val table = ColumnStore.fromDataFrame("li-save", li.repartition(3)).warm()

  test("distributed save writes every member row, one file per leaf block") {
    val dir = java.nio.file.Files.createTempDirectory("repro-save").toString
    val s   = ExecutionTree.run(table, SaveTableSketch(dir, Seq("l_orderkey", "l_quantity")))
    assert(s.errors.isEmpty)
    assert(s.rows == table.numRows)
    assert(s.files > 1) // multiple micropartitions → multiple files
    val back = spark.read.option("header", "true").csv(dir)
    assert(back.count() == li.count())
  }

  test("saving a filtered table persists only the membership") {
    val dir = java.nio.file.Files.createTempDirectory("repro-save-f").toString
    val f = table.filter("q<10", new RowPred {
      def apply(b: ColumnarBlock, i: Int): Boolean = b.column("l_quantity").asDouble(i) < 10.0
    })
    val s = ExecutionTree.run(f, SaveTableSketch(dir, Seq("l_quantity")))
    assert(s.rows == f.numRows)
    val back = spark.read.option("header", "true").csv(dir)
    assert(back.count() == f.numRows)
    assert(back.collect().forall(_.getString(0).toDouble < 10.0))
    f.drop()
  }

  test("the summary flowing to the root is tiny even though the data is not") {
    val dir = java.nio.file.Files.createTempDirectory("repro-save-b").toString
    val s   = ExecutionTree.run(table, SaveTableSketch(dir, Seq("l_orderkey")))
    assert(Serde.sizeOf(s) < 1024)
  }

  test("unwritable directory reports an error indication instead of failing the tree") {
    val s = ExecutionTree.run(table, SaveTableSketch("/proc/definitely/not/writable", Seq("l_orderkey")))
    assert(s.errors.nonEmpty)
    assert(s.files == 0)
  }
}
