package repro.engine

import org.apache.spark.SparkEnv
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{SparkSpec, SynthData}
import repro.core._
import repro.storage.{CachedTable, ColumnStore, ColumnarBlock, RowFn, RowPred}

class ExecutionTreeSpec extends SparkSpec {

  private lazy val table = {
    val df = SynthData.uniformKeys(spark, 200000, 1000).repartition(16)
    ColumnStore.fromDataFrame("uk", df).warm()
  }
  private val buckets = NumericBuckets(1, 1001, 50)

  test("run computes the same result as a local fold") {
    val got = ExecutionTree.run(table, StreamingHistogramSketch("k", buckets))
    assert(got.counts.sum + got.outOfRange == 200000L)
  }

  test("progressive final value equals blocking run") {
    val run  = ExecutionTree.run(table, StreamingHistogramSketch("k", buckets))
    val prog = ExecutionTree.runProgressive(table, StreamingHistogramSketch("k", buckets),
      aggregationIntervalMs = 10)
    assert(prog.finalValue.counts.toSeq == run.counts.toSeq)
    assert(!prog.cancelled)
  }

  test("progressive partials converge monotonically in leaves done") {
    val prog = ExecutionTree.runProgressive(table, MomentsSketch("k"), aggregationIntervalMs = 10)
    val dones = prog.partials.map(_.leavesDone)
    assert(dones == dones.sorted)
    assert(dones.last == prog.partials.head.leavesTotal)
    // counts only grow as leaves complete
    val counts = prog.partials.map(_.value.count)
    assert(counts == counts.sorted)
    assert(counts.last == 200000L)
  }

  test("partials report elapsed time and per-update bytes") {
    val prog = ExecutionTree.runProgressive(table, StreamingHistogramSketch("k", buckets),
      aggregationIntervalMs = 10)
    prog.partials.foreach { p =>
      assert(p.elapsedMs > 0)
      assert(p.bytesThisUpdate > 0)
    }
    val times = prog.partials.map(_.elapsedMs)
    assert(times == times.sorted)
  }

  test("each partial's bytes are the serialized size of the update it stands for, and they sum to totalBytes") {
    val sk   = StreamingHistogramSketch("k", buckets)
    val prog = ExecutionTree.runProgressive(table, sk, aggregationIntervalMs = 1)
    assert(prog.partials.forall(_.update.isDefined))
    val sizes = prog.partials.map(p => Serde.sizeOf(p.update.get))
    assert(prog.partials.map(_.bytesThisUpdate) == sizes)
    assert(prog.totalBytes == sizes.sum)
    // The updates are the ones the root merged: together they are the final value.
    assert(prog.partials.map(_.update.get).reduce(sk.merge).counts.toSeq == prog.finalValue.counts.toSeq)
  }

  test("summaries stay small: bytes are O(screen), not O(data)") {
    val prog = ExecutionTree.runProgressive(table, StreamingHistogramSketch("k", buckets))
    assert(prog.totalBytes < 100 * 1024, s"root received ${prog.totalBytes} bytes")
  }

  test("aggregation interval batches arrivals into at most one update per leaf") {
    val prog = ExecutionTree.runProgressive(table, MomentsSketch("k"), aggregationIntervalMs = 1)
    assert(prog.updates >= 1 && prog.updates <= table.numLeaves)
    assert(prog.partials.last.leavesDone == table.numLeaves)
  }

  test("cancellation drops not-yet-started micropartitions") {
    // Slow leaves over more partitions than cores, so partials arrive
    // while work is still queued and cancellation has something to drop.
    val slowTable = {
      val df = SynthData.uniformKeys(spark, 64000, 100).repartition(64)
      ColumnStore.fromDataFrame("uk-slow", df).warm()
    }
    val prog = ExecutionTree.runProgressive(slowTable, SlowMoments("k"),
      aggregationIntervalMs = 50,
      cancel = (p: Partial[MomentsSummary]) => p.leavesDone >= 4)
    assert(prog.cancelled)
    assert(prog.partials.last.leavesDone < 64)
    assert(prog.partials.last.value.count < 64000L)
    slowTable.drop()
  }

  test("cancelling after the first partial returns that leaf alone, without waiting for the rest") {
    import spark.implicits._
    val stallMs = 4000L
    val fourLeaves = ColumnStore.fromDataFrame("uk-stalled",
      spark.range(0, 4000, 1, 4).map(_.toDouble).toDF("k")).warm()
    try {
      assert(fourLeaves.numLeaves == 4)
      val t0   = System.nanoTime()
      val prog = ExecutionTree.runProgressive(fourLeaves, StallingMoments("k", stallMs),
        aggregationIntervalMs = 10, cancel = (_: Partial[MomentsSummary]) => true)
      val ms = (System.nanoTime() - t0) / 1e6
      assert(prog.cancelled)
      // The one partial holds leaf 0's 1,000 rows once; no other leaf had arrived.
      assert(prog.partials.map(_.leavesDone) == Vector(1))
      assert(prog.finalValue.count == 1000L && prog.finalValue.min == 0.0 && prog.finalValue.max == 999.0)
      assert(ms < stallMs / 2, s"the cancelled call took $ms ms")
    } finally fourLeaves.drop()
  }

  test("a sketch that cannot be serialized fails both routes with a SparkException") {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.duration._
    implicit val ec: scala.concurrent.ExecutionContext = scala.concurrent.ExecutionContext.global
    val sk = UnshippableMoments("k")
    for (route <- Seq[() => Any](() => ExecutionTree.run(table, sk), () => ExecutionTree.runProgressive(table, sk))) {
      val e     = intercept[org.apache.spark.SparkException](Await.result(Future(route()), 60.seconds))
      val chain = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.toString).toSeq
      assert(chain.exists(_.contains("NotSerializableException")), chain.mkString(" <- "))
    }
  }

  test("sampled sketches are deterministic across progressive/blocking execution") {
    val sk = SampledHistogramSketch("k", buckets, 0.1)
    val a  = ExecutionTree.run(table, sk, seed = 5)
    val b  = ExecutionTree.runProgressive(table, sk, seed = 5).finalValue
    assert(a.counts.toSeq == b.counts.toSeq)
    val c = ExecutionTree.run(table, sk, seed = 6)
    assert(a.counts.toSeq != c.counts.toSeq)
  }

  test("a sampled quantile gives the same sample through run and runProgressive") {
    val sk = QuantileSketch(Seq(SortCol("k", ascending = false)), 2000, rate = 0.02)
    val a  = ExecutionTree.run(table, sk, seed = 5)
    val b  = ExecutionTree.runProgressive(table, sk, seed = 5, aggregationIntervalMs = 1).finalValue
    assert(a.size == 2000)
    assert(a == b)
    assert(QuantileSketch.quantileOf(a, sk.sortCols, 0.5) == QuantileSketch.quantileOf(b, sk.sortCols, 0.5))
    assert(ExecutionTree.run(table, sk, seed = 6) != a)
  }

  test("LocalWorker, run and runProgressive draw the same samples on a table with one block per partition") {
    // Every table from `fromDataFrame` has one block per partition, so
    // block i of the collected blocks is partition i's.
    assert(table.numLeaves == 16)
    assert(table.blocks.glom().map(_.length).collect().toSeq == Seq.fill(16)(1))
    val blocks = table.blocks.collect().toIndexedSeq
    def allRoutes[S: scala.reflect.ClassTag](sk: Sketch[S]): Seq[S] = Seq(
      LocalWorker.run(blocks, sk, 1, seed = 5),
      LocalWorker.run(blocks, sk, 4, seed = 5),
      ExecutionTree.run(table, sk, seed = 5),
      ExecutionTree.runProgressive(table, sk, seed = 5, aggregationIntervalMs = 1).finalValue)
    val hists = allRoutes(SampledHistogramSketch("k", buckets, 0.1))
    assert(hists.map(_.counts.toSeq).distinct.size == 1, hists.map(_.counts.sum))
    assert(hists.map(h => (h.outOfRange, h.missing, h.sampled)).distinct.size == 1)
    val quantiles = allRoutes(QuantileSketch(Seq(SortCol("k", ascending = false)), 500, rate = 0.02))
    assert(quantiles.head.size == 500)
    assert(quantiles.distinct.size == 1)
  }

  test("a throwing leaf fails the progressive call promptly instead of hanging") {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.duration._
    val t0  = System.nanoTime()
    val run = Future(ExecutionTree.runProgressive(table, FailingMoments("k"), aggregationIntervalMs = 50))(
      scala.concurrent.ExecutionContext.global)
    val e = intercept[org.apache.spark.SparkException](Await.result(run, 60.seconds))
    assert(e.getMessage.contains("leaf failed on purpose"), e.getMessage)
    assert((System.nanoTime() - t0) / 1e9 < 30, "the failure took too long to surface")
  }

  test("empty table yields the zero summary") {
    import spark.implicits._
    val empty = ColumnStore.fromDataFrame("empty",
      Seq.empty[Double].toDF("k"), cache = false)
    val got = ExecutionTree.run(empty, MomentsSketch("k"))
    assert(got.isEmpty)
  }

  /** Both routes on a table without rows give the sketches' zero, and
    * `runProgressive` emits it as exactly one partial.
    */
  private def assertZeroResults(t: CachedTable): Unit = {
    val hist = StreamingHistogramSketch("k", buckets)
    val h    = ExecutionTree.run(t, hist)
    assert(h.counts.length == buckets.count && h.counts.forall(_ == 0L))
    assert(h.outOfRange == 0L && h.missing == 0L && h.sampled == 0L)
    assert(ExecutionTree.run(t, MomentsSketch("k")).count == 0L)

    // An interval longer than the test: the one partial is the final one.
    val ph = ExecutionTree.runProgressive(t, hist, aggregationIntervalMs = 600000)
    assert(ph.updates == 1 && !ph.cancelled)
    assert(ph.finalValue.counts.length == buckets.count && ph.finalValue.counts.forall(_ == 0L))
    val pm = ExecutionTree.runProgressive(t, MomentsSketch("k"), aggregationIntervalMs = 600000)
    assert(pm.updates == 1 && pm.finalValue.count == 0L)
  }

  test("a table with zero partitions yields the zero summary on both routes") {
    val none = new CachedTable("none", spark.sparkContext.emptyRDD[ColumnarBlock], Seq("k", "v"))
    assert(none.numLeaves == 0)
    assertZeroResults(none)
  }

  test("a filtered table with zero members yields the zero summary on both routes") {
    val nobody = table.filter("nobody", NoRow).warm()
    try {
      assert(nobody.numRows == 0L && nobody.numLeaves == table.numLeaves)
      assertZeroResults(nobody)
    } finally nobody.drop()
  }

  /** Bytes of a leaf job's task binary: the leaf RDD and `runProgressive`'s
    * job function, closure-serialized the way Spark's scheduler ships them
    * to tasks. The scheduler has computed the RDD's dependencies by then,
    * so an RDD that holds its parent only in its dependency list ships it.
    */
  private def taskBytes(t: CachedTable): Int = {
    val sk   = MomentsSketch("k")
    val leaf = ExecutionTree.leafSummaries(t, sk, 0L)
    leaf.dependencies
    SparkEnv.get.closureSerializer.newInstance().serialize((leaf, LeafResult[MomentsSummary]())).limit()
  }

  /** A table built from `df`, one filtered from it, and one derived from
    * that, each warmed.
    */
  private def chain(name: String, df: DataFrame): Seq[CachedTable] = {
    val t = ColumnStore.fromDataFrame(name, df).warm()
    val f = t.filter("odd", OddKey).warm()
    Seq(t, f, f.derive("w", KeyPlusV).warm())
  }

  test("a leaf job's task binary does not carry the table's SQL plan") {
    val df   = SynthData.uniformKeys(spark, 20000, 100).repartition(4)
    val deep = (1 to 20).foldLeft(df)((d, i) => d.select(col("k"), (col("v") + i).as("v")))
    val plain  = chain("plan-plain", df)
    val longer = chain("plan-deep", deep)
    for ((a, b) <- plain.zip(longer)) {
      val (na, nb) = (taskBytes(a), taskBytes(b))
      info(s"${a.id}: $na B, ${b.id}: $nb B")
      assert(na <= 16 * 1024 && nb <= 16 * 1024, s"${a.id}: $na B, ${b.id}: $nb B")
      assert(math.abs(na - nb) <= 1024, s"${a.id}: $na B, ${b.id}: $nb B")
    }
    // An uncached table keeps its lineage, so there the plan shows.
    val Seq(ua, ub) = Seq(df, deep).map(d => taskBytes(ColumnStore.fromDataFrame("plan-uncached", d, cache = false)))
    info(s"uncached: $ua B, $ub B")
    assert(ub > ua + 1024, s"uncached: $ua B vs $ub B")
    (plain ++ longer).reverse.foreach(_.drop())
  }
}

/** Keeps rows with an odd key. */
object OddKey extends RowPred {
  def apply(b: ColumnarBlock, i: Int): Boolean = b.column("k").asDouble(i) % 2 == 1
}

/** Keeps no row. */
object NoRow extends RowPred {
  def apply(b: ColumnarBlock, i: Int): Boolean = false
}

/** k + v, a derived column. */
object KeyPlusV extends RowFn {
  def apply(b: ColumnarBlock, i: Int): Double = b.column("k").asDouble(i) + b.column("v").asDouble(i)
}

/** Moments sketch with an artificial 100 ms leaf delay — used to test
  * cancellation with work still queued. Top-level so Spark can serialize
  * it without capturing the test suite.
  */
final case class SlowMoments(col: String) extends Sketch[MomentsSummary] {
  private val inner = MomentsSketch(col)
  def name = "slow.moments"
  def zero = inner.zero
  def summarize(b: repro.storage.ColumnarBlock, ctx: LeafCtx): MomentsSummary = {
    Thread.sleep(100); inner.summarize(b, ctx)
  }
  def merge(a: MomentsSummary, b: MomentsSummary): MomentsSummary = inner.merge(a, b)
}

/** Moments sketch whose leaves other than leaf 0 sleep `stallMs` first —
  * used to cancel a progressive run while most leaves are still running.
  */
final case class StallingMoments(col: String, stallMs: Long) extends Sketch[MomentsSummary] {
  private val inner = MomentsSketch(col)
  def name = "stalling.moments"
  def zero = inner.zero
  def summarize(b: repro.storage.ColumnarBlock, ctx: LeafCtx): MomentsSummary = {
    if (ctx.blockId != 0) Thread.sleep(stallMs)
    inner.summarize(b, ctx)
  }
  def merge(a: MomentsSummary, b: MomentsSummary): MomentsSummary = inner.merge(a, b)
}

/** Moments sketch holding a field Java serialization rejects. */
final case class UnshippableMoments(col: String) extends Sketch[MomentsSummary] {
  private val inner = MomentsSketch(col)
  private val lock  = new Object
  def name = "unshippable.moments"
  def zero = inner.zero
  def summarize(b: repro.storage.ColumnarBlock, ctx: LeafCtx): MomentsSummary =
    lock.synchronized(inner.summarize(b, ctx))
  def merge(a: MomentsSummary, b: MomentsSummary): MomentsSummary = inner.merge(a, b)
}

/** Moments sketch whose leaves throw — used to test that a failed job
  * surfaces at the root.
  */
final case class FailingMoments(col: String) extends Sketch[MomentsSummary] {
  private val inner = MomentsSketch(col)
  def name = "failing.moments"
  def zero = inner.zero
  def summarize(b: repro.storage.ColumnarBlock, ctx: LeafCtx): MomentsSummary =
    throw new IllegalStateException("leaf failed on purpose")
  def merge(a: MomentsSummary, b: MomentsSummary): MomentsSummary = inner.merge(a, b)
}

/** The block ids the leaves were given, in leaf order. */
final case class BlockIds() extends Sketch[Vector[Long]] {
  def name = "block.ids"
  def zero = Vector.empty
  def summarize(b: repro.storage.ColumnarBlock, ctx: LeafCtx): Vector[Long] = Vector(ctx.blockId)
  def merge(a: Vector[Long], b: Vector[Long]): Vector[Long] = a ++ b
}

class LocalWorkerSpec extends org.scalatest.funsuite.AnyFunSuite {
  import repro.TestData._

  private val values = randomDoubles(40000, seed = 31)
  private val bk     = NumericBuckets(0, 100, 20)

  test("result is identical for any thread count") {
    val blocks = splitBlocks(values, 8)
    val ref    = LocalWorker.run(blocks, StreamingHistogramSketch("x", bk), 1)
    for (t <- Seq(2, 4, 8))
      assert(LocalWorker.run(blocks, StreamingHistogramSketch("x", bk), t).counts.toSeq ==
        ref.counts.toSeq, s"threads=$t")
  }

  test("sampled sketches stay deterministic under concurrency") {
    val blocks = splitBlocks(values, 8)
    val a = LocalWorker.run(blocks, SampledHistogramSketch("x", bk, 0.2), 4, seed = 3)
    val b = LocalWorker.run(blocks, SampledHistogramSketch("x", bk, 0.2), 8, seed = 3)
    assert(a.counts.toSeq == b.counts.toSeq)
  }

  test("timeMs returns a positive median") {
    val blocks = splitBlocks(values, 4)
    assert(LocalWorker.timeMs(blocks, StreamingHistogramSketch("x", bk), 2, reps = 3, warmups = 1) > 0)
  }

  test("LeafFold gives partition 21,475 a positive block id distinct from partition 0's") {
    val block = splitBlocks(values.take(30), 1).head
    def ids(pid: Int) = LeafFold(BlockIds(), 0L)(pid, Iterator.single(block)).next()
    assert(ids(0) == Vector(0L))
    assert(ids(21475) == Vector(21475L))
    assert(ids(Int.MaxValue) == Vector(Int.MaxValue.toLong))
  }

  test("LeafFold gives an empty partition the zero summary and rejects a second block") {
    val blocks = splitBlocks(values.take(30), 2)
    assert(LeafFold(BlockIds(), 0L)(3, Iterator.empty).next() == Vector.empty)
    intercept[IllegalArgumentException](LeafFold(BlockIds(), 0L)(3, blocks.iterator).next())
  }

  test("rejects zero threads") {
    intercept[IllegalArgumentException](
      LocalWorker.run(splitBlocks(values, 2), MomentsSketch("x"), 0))
  }

  test("ClusterSim reports per-server and max latency") {
    val servers = (0 until 3).map(_ => splitBlocks(values, 2))
    val r = ClusterSim.run(servers, StreamingHistogramSketch("x", bk), threadsPerServer = 2, reps = 1)
    assert(r.perServerMs.length == 3)
    assert(r.simulatedLatencyMs == r.perServerMs.max)
  }
}

class ComputationCacheSpec extends org.scalatest.funsuite.AnyFunSuite {

  test("second lookup is a hit and skips compute") {
    val cache = new ComputationCache()
    var computes = 0
    def get() = cache.getOrCompute("t1", "moments[x]") { computes += 1; 42 }
    assert(get() == 42 && get() == 42)
    assert(computes == 1)
    assert(cache.hitCount == 1 && cache.missCount == 1)
  }

  test("keys separate by table and sketch") {
    val cache = new ComputationCache()
    cache.getOrCompute("t1", "a")(1)
    cache.getOrCompute("t2", "a")(2)
    cache.getOrCompute("t1", "b")(3)
    assert(cache.size == 3)
    assert(cache.getOrCompute("t2", "a")(99) == 2)
  }

  test("contains reflects stored keys") {
    val cache = new ComputationCache()
    assert(!cache.contains("t", "k"))
    cache.getOrCompute("t", "k")(7)
    assert(cache.contains("t", "k"))
  }

  test("clear drops entries and stats") {
    val cache = new ComputationCache()
    cache.getOrCompute("t", "k")(7)
    cache.clear()
    assert(cache.size == 0 && cache.hitCount == 0)
    assert(cache.getOrCompute("t", "k")(8) == 8)
  }

  test("capacity bound stops insertion, not correctness") {
    val cache = new ComputationCache(maxEntries = 2)
    (1 to 5).foreach(i => cache.getOrCompute("t", s"k$i")(i))
    assert(cache.size == 2)
    assert(cache.getOrCompute("t", "k5")(55) == 55) // recomputed, not cached
  }
}
