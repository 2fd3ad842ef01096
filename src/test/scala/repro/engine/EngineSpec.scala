package repro.engine

import repro.{SparkSpec, SynthData}
import repro.core.{MomentsSketch, NumericBuckets, QuantileSketch, SampledHistogramSketch, SortCol}
import repro.storage.{CachedTable, ColumnStore, ColumnarBlock, RowFn, RowPred}

class EngineSpec extends SparkSpec {

  /** Fresh engine with the builders/predicates the tests replay. */
  private def newEngine(): Engine = {
    val e = new Engine(spark)
    e.registerBuilder("lineitem") { params =>
      val sf = params.getOrElse("sf", "0.002").toDouble
      ColumnStore.fromDataFrame("src", SynthData.lineitem(spark, sf, seed = 1).repartition(3))
    }
    e.registerPredicate("qtyAbove") { params =>
      val threshold = params("t").toDouble
      new RowPred {
        def apply(b: ColumnarBlock, i: Int): Boolean =
          b.column("l_quantity").asDouble(i) > threshold
      }
    }
    e.registerPredicate("qtyBelow") { params =>
      val threshold = params("t").toDouble
      new RowPred {
        def apply(b: ColumnarBlock, i: Int): Boolean =
          b.column("l_quantity").asDouble(i) < threshold
      }
    }
    e.registerMapFn("revenue") { _ =>
      new RowFn {
        def apply(b: ColumnarBlock, i: Int): Double =
          b.column("l_extendedprice").asDouble(i) * (1.0 - b.column("l_discount").asDouble(i))
      }
    }
    e.registerMapFn("discount") { _ =>
      new RowFn {
        def apply(b: ColumnarBlock, i: Int): Double = b.column("l_discount").asDouble(i)
      }
    }
    e
  }

  /** A load → filter → derive chain: (source, filtered, derived). */
  private def loadChain(e: Engine): (CachedTable, CachedTable, CachedTable) = {
    val t = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f = e.filter(t, "big", "qtyAbove", Map("t" -> "40"))
    (t, f, e.derive(f, "revenue", "revenue"))
  }

  private val sampled = SampledHistogramSketch("revenue", NumericBuckets(0, 100000, 25), 0.2)

  test("load registers the table and logs the operation") {
    val e = newEngine()
    val t = e.load("li", "lineitem", Map("sf" -> "0.002"))
    assert(t.numRows > 0)
    assert(e.log.entries.exists { case LoadOp("li", "lineitem", _) => true; case _ => false })
    assert(e.registeredTables.contains("li"))
  }

  test("engine tables filtered or derived from a source keep its cache key's blocks") {
    val e         = newEngine()
    val (t, f, d) = loadChain(e)
    assert(Seq(t, f, d).map(_.sourceBlocksId) == Seq.fill(3)(t.blocks.id))
    assert(f.cacheKey == s"${f.id}@${t.blocks.id}")
  }

  test("filter and derive build derived tables with logged lineage") {
    val e  = newEngine()
    val t  = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f  = e.filter(t, "big", "qtyAbove", Map("t" -> "40"))
    val d  = e.derive(f, "revenue", "revenue")
    assert(f.numRows < t.numRows && f.numRows > 0)
    assert(d.columnNames.contains("revenue"))
    assert(e.log.entries.size == 3)
  }

  test("soft state recovery: dropping everything and re-reading replays the log") {
    val e  = newEngine()
    val t  = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f  = e.filter(t, "big", "qtyAbove", Map("t" -> "40"))
    val before = ExecutionTree.run(f, MomentsSketch("l_quantity"))

    e.dropAllSoftState()
    assert(e.registeredTables.isEmpty)

    val recovered = e.table(f.id) // triggers recursive replay: filter needs load
    val after     = ExecutionTree.run(recovered, MomentsSketch("l_quantity"))
    assert(after.count == before.count)
    assert(after.min == before.min && after.max == before.max)
    assert(math.abs(after.sum - before.sum) < 1e-6)
  }

  test("randomized sketches reproduce exactly after recovery (seeded determinism, §5.8)") {
    val e  = newEngine()
    val t  = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val sk = SampledHistogramSketch("l_quantity", NumericBuckets(0, 60, 20), 0.1)
    val before = ExecutionTree.run(t, sk, seed = 77)
    e.dropAllSoftState()
    val after = ExecutionTree.run(e.table("li"), sk, seed = 77)
    assert(before.counts.toSeq == after.counts.toSeq)
  }

  test("a load → filter → derive chain replays to identical sketches after dropping soft state") {
    val e         = newEngine()
    val (_, f, d) = loadChain(e)
    val hist      = ExecutionTree.run(d, sampled, seed = 13)
    val moments   = ExecutionTree.run(d, MomentsSketch("revenue"))
    val rows      = f.numRows

    e.dropAllSoftState()
    val replayed = e.table(d.id)
    assert(!(replayed eq d))
    assert(e.table(f.id).numRows == rows)
    val hist2    = ExecutionTree.run(replayed, sampled, seed = 13)
    val moments2 = ExecutionTree.run(replayed, MomentsSketch("revenue"))
    assert(hist2.counts.toSeq == hist.counts.toSeq)
    assert((hist2.outOfRange, hist2.missing, hist2.sampled) == (hist.outOfRange, hist.missing, hist.sampled))
    assert(moments2.count == moments.count && moments2.missing == moments.missing)
    assert(moments2.min == moments.min && moments2.max == moments.max)
    // Leaf sums arrive at the root in completion order, so the float sums
    // may differ in the last place.
    moments2.powerSums.zip(moments.powerSums).foreach { case (x, y) =>
      assert(math.abs(x - y) <= 1e-12 * math.abs(y), s"$x vs $y")
    }
    assert(e.log.entries.size == 3)
  }

  test("a replayed source and its filtered table give the same seeded sampled histogram and quantile") {
    val e     = newEngine()
    val t     = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f     = e.filter(t, "big", "qtyAbove", Map("t" -> "40"))
    val hist  = SampledHistogramSketch("l_quantity", NumericBuckets(0, 60, 20), 0.2)
    val quant = QuantileSketch(Seq(SortCol("l_extendedprice")), 300, rate = 0.2)
    def results(x: CachedTable) = {
      val h = ExecutionTree.run(x, hist, seed = 9)
      (h.counts.toSeq, h.sampled, ExecutionTree.run(x, quant, seed = 9))
    }
    val before = Seq(t, f).map(results)
    e.dropAllSoftState()
    val replayed = Seq(t.id, f.id).map(e.table)
    assert(replayed.zip(Seq(t, f)).forall { case (a, b) => !(a eq b) })
    assert(replayed.map(results) == before)
  }

  test("a filter label containing |filter: replays to the same id and rows") {
    val e    = newEngine()
    val t    = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f    = e.filter(t, "q|filter:big", "qtyAbove", Map("t" -> "40"))
    val rows = f.numRows
    assert(f.id == "li|filter:q|filter:big" && rows > 0)
    e.dropAllSoftState()
    val replayed = e.table(f.id)
    assert(!(replayed eq f))
    assert(replayed.id == f.id && replayed.numRows == rows)
    assert(e.log.entries.size == 2)
  }

  test("a sketch on a dropped table object fails instead of recomputing or hanging") {
    import scala.concurrent.{Await, ExecutionContext, Future}
    import scala.concurrent.duration._
    val e         = newEngine()
    val (t, f, d) = loadChain(e)
    val counts    = Seq(t, f, d).map(x => ExecutionTree.run(x, MomentsSketch("l_quantity")).count)
    assert(counts.forall(_ > 0))
    e.dropAllSoftState()
    for (x <- Seq(t, f, d)) {
      val run = Future(ExecutionTree.run(x, MomentsSketch("l_quantity")))(ExecutionContext.global)
      intercept[org.apache.spark.SparkException](Await.result(run, 60.seconds))
      val prog = Future(ExecutionTree.runProgressive(x, MomentsSketch("l_quantity")))(ExecutionContext.global)
      intercept[org.apache.spark.SparkException](Await.result(prog, 60.seconds))
    }
    // The redo log still rebuilds them.
    assert(ExecutionTree.run(e.table(d.id), MomentsSketch("l_quantity")).count == counts(2))
  }

  test("an op under a logged table id with different content is rejected") {
    val e         = newEngine()
    val (t, f, _) = loadChain(e)
    val rows      = f.numRows
    intercept[IllegalArgumentException](e.filter(t, "big", "qtyAbove", Map("t" -> "30")))
    intercept[IllegalArgumentException](e.filter(t, "big", "qtyBelow", Map("t" -> "40")))
    intercept[IllegalArgumentException](e.derive(f, "revenue", "discount"))
    intercept[IllegalArgumentException](e.derive(f, "revenue", "revenue", Map("x" -> "1")))
    intercept[IllegalArgumentException](e.load("li", "lineitem", Map("sf" -> "0.001")))
    assert(e.log.entries.size == 3)

    e.dropAllSoftState()
    intercept[IllegalArgumentException](e.filter(e.table("li"), "big", "qtyAbove", Map("t" -> "30")))
    assert(e.table(f.id).numRows == rows)
    assert(e.log.entries.size == 3)
  }

  test("repeating a logged op returns its table without a second log entry") {
    val e         = newEngine()
    val (t, f, d) = loadChain(e)
    assert(e.filter(t, "big", "qtyAbove", Map("t" -> "40")) eq f)
    assert(e.derive(f, "revenue", "revenue") eq d)
    assert(e.load("li", "lineitem", Map("sf" -> "0.002")) eq t)
    assert(e.log.entries.size == 3)
    val rows = f.numRows
    val hist = ExecutionTree.run(d, sampled, seed = 3)

    e.dropAllSoftState()
    val t2 = e.load("li", "lineitem", Map("sf" -> "0.002"))
    val f2 = e.filter(t2, "big", "qtyAbove", Map("t" -> "40"))
    val d2 = e.derive(f2, "revenue", "revenue")
    assert(f2.id == "li|filter:big" && d2.id == "li|filter:big|derive:revenue")
    assert(!(f2 eq f) && (e.table(d.id) eq d2))
    assert(f2.numRows == rows)
    assert(ExecutionTree.run(d2, sampled, seed = 3).counts.toSeq == hist.counts.toSeq)
    assert(e.log.entries.size == 3)
  }

  test("blocks lost behind the engine's back are replayed from the log and the run retried") {
    val e         = newEngine()
    val (t, f, d) = loadChain(e)
    val hist      = e.run(d.id, sampled, seed = 13)
    val count     = e.run(t.id, MomentsSketch("l_quantity")).count
    // An executor's death: every cached block of the chain is gone, but
    // the engine still holds the tables.
    def loseBlocks(ts: CachedTable*): Unit = ts.foreach(_.blocks.unpersist(blocking = true))
    loseBlocks(t, f, d)
    intercept[org.apache.spark.SparkException](ExecutionTree.run(d, sampled, seed = 13))

    assert(e.run(d.id, sampled, seed = 13).counts.toSeq == hist.counts.toSeq)
    val (t2, f2, d2) = (e.table(t.id), e.table(f.id), e.table(d.id))
    assert(!(t2 eq t) && !(f2 eq f) && !(d2 eq d))
    assert(ExecutionTree.run(d2, sampled, seed = 13).counts.toSeq == hist.counts.toSeq)
    assert(e.run(t.id, MomentsSketch("l_quantity")).count == count)

    loseBlocks(t2)
    assert(e.runProgressive(t.id, MomentsSketch("l_quantity")).finalValue.count == count)
    assert(!(e.table(t.id) eq t2) && !(e.table(d.id) eq d2))
    assert(e.log.entries.size == 3)
  }

  test("a run that fails for another reason keeps its table") {
    val e         = newEngine()
    val (t, _, _) = loadChain(e)
    intercept[org.apache.spark.SparkException](e.run(t.id, MomentsSketch("no_such_column")))
    assert(e.table(t.id) eq t)
  }

  test("accessing an unknown table fails with a recovery error") {
    val e = newEngine()
    val ex = intercept[IllegalStateException](e.table("nope"))
    assert(ex.getMessage.contains("redo log"))
  }

  test("redo log survives a save/load round trip (root restart, §5.8)") {
    val e = newEngine()
    val t = e.load("li", "lineitem", Map("sf" -> "0.002"))
    e.filter(t, "big", "qtyAbove", Map("t" -> "30"))
    val path = java.nio.file.Files.createTempFile("redo", ".log").toString
    e.log.save(path)

    val e2 = newEngine() // a restarted root: empty registry, fresh builders
    e2.log.load(path)
    assert(e2.log.entries == e.log.entries)
    val recovered = e2.table(s"${t.id}|filter:big")
    assert(recovered.numRows > 0)
  }

  test("unregistered builder fails replay loudly") {
    val e = new Engine(spark)
    e.log.append(LoadOp("x", "missing-builder", Map.empty))
    val ex = intercept[IllegalStateException](e.table("x"))
    assert(ex.getMessage.contains("missing-builder"))
  }
}
