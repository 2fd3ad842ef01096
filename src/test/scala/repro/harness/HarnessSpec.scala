package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

class LocCountSpec extends AnyFunSuite {

  test("every Fig. 9 vizketch maps to a real declaration") {
    val rows = T6VizketchLoc.run()
    assert(rows.size == T6VizketchLoc.Mapping.size)
    rows.foreach(r => assert(r.loc > 0, s"${r.vizketch} had 0 LOC"))
  }

  test("our vizketches are compact like the paper's (under ~250 LOC each)") {
    T6VizketchLoc.run().foreach(r =>
      assert(r.loc < 250, s"${r.vizketch} is ${r.loc} LOC"))
  }

  test("render produces a table with one row per vizketch") {
    val txt = T6VizketchLoc.render(T6VizketchLoc.run())
    assert(txt.contains("Heatmap"))
    assert(txt.linesIterator.size >= T6VizketchLoc.Mapping.size + 3)
  }
}

class TableTextSpec extends AnyFunSuite {

  test("columns align and header separates") {
    val t = TableText.render("demo", Seq("a", "bee"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.linesIterator.toSeq
    assert(lines.head == "== demo ==")
    assert(lines(2).forall(c => c == '-' || c == '|'))
    assert(lines.drop(1).map(_.length).distinct.size == 1)
  }

  test("byte formatting picks sensible units") {
    assert(TableText.fmtBytes(512) == "0.5KB")
    assert(TableText.fmtBytes(2 * 1048576) == "2.00MB")
  }
}

class DatasetsSpec extends SparkSpec {

  test("numericShards are deterministic and sized correctly") {
    val a = Datasets.numericShards(3, 1000)
    val b = Datasets.numericShards(3, 1000)
    assert(a.length == 3)
    a.zip(b).foreach { case (x, y) =>
      assert(x.numRows == 1000)
      assert(x.column("x").asDouble(0) == y.column("x").asDouble(0))
    }
    // different shards differ
    assert(a(0).column("x").asDouble(0) != a(1).column("x").asDouble(0))
  }

  test("numericShards look like a delay column (heavy right tail)") {
    val vals = Datasets.numericShards(1, 50000).head
      .column("x").asInstanceOf[repro.storage.DoubleColumn].values.toArray
    val sorted = vals.sorted
    val median = sorted(vals.length / 2)
    val p99    = sorted((vals.length * 0.99).toInt)
    assert(p99 > median + 50)
  }

  test("flightsTable caches only the workload columns") {
    val t = Datasets.flightsTable(spark, 20000, "spec")
    assert(t.columnNames.toSet == Datasets.WorkloadCols.toSet)
    assert(t.numRows == 20000)
    t.drop()
  }

  test("writeParquet is idempotent and cold table reads it back") {
    val dir  = java.nio.file.Files.createTempDirectory("repro-cold-spec").toString
    val p1   = Datasets.writeParquet(spark, 5000, dir)
    val p2   = Datasets.writeParquet(spark, 5000, dir)
    assert(p1 == p2)
    val t = Datasets.flightsCold(spark, p1, "spec")
    assert(t.numRows == 5000)
  }
}

/** Smoke tests of the microbench harnesses at miniature sizes, so the
  * bench wiring is covered by `sbt test` before the real runs.
  */
class MicrobenchSmokeSpec extends AnyFunSuite {

  test("T1 harness produces the three-method table") {
    val rows = T1SingleThread.run(rows = 200000, reps = 1)
    assert(rows.map(_.method) == Seq("streaming", "sampling", "database system"))
    rows.foreach(r => assert(r.timeMs > 0))
  }

  test("T1 next-items harness times a first page and a page after a start") {
    val rows = T1SingleThread.nextItems(rows = 200000, reps = 1)
    assert(rows.map(_.method) == Seq("next items", "next items, start at mean"))
    rows.foreach(r => assert(r.timeMs > 0))
  }

  test("T1 hand-loop harness times the streaming vizketch and the hand loop in pairs") {
    val rows = T1SingleThread.versusHandLoop(rows = 200000, reps = 2, warmups = 1)
    assert(rows.map(_.method) == Seq("streaming, paired", "hand loop"))
    rows.foreach(r => assert(r.timeMs > 0))
  }

  test("T4 harness produces one row per shard count") {
    val rows = T4ThreadScalability.run(Seq(1, 2), rowsPerShard = 100000, reps = 1)
    assert(rows.map(_.shards) == Seq(1, 2))
    rows.foreach { r => assert(r.streamingMs > 0 && r.samplingMs > 0) }
  }

  test("T5 harness produces one row per server count") {
    val rows = T5ServerScalability.run(Seq(1, 2), shardsPerServer = 2, rowsPerShard = 100000)
    assert(rows.map(_.servers) == Seq(1, 2))
  }
}
