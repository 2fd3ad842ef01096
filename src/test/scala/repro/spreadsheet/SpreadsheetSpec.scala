package repro.spreadsheet

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.engine.{ComputationCache, ExecutionTree, Partial}
import repro.harness.Datasets
import repro.storage.CachedTable

class SpreadsheetSpec extends SparkSpec {

  private lazy val df    = Datasets.flightsDf(spark, 150000).cache()
  private lazy val table: CachedTable =
    repro.storage.ColumnStore.fromDataFrame("flights-spec", df.repartition(15)).warm()
  private def sheet = new Spreadsheet(new ComputationCache())

  test("range is cached: second call does not recompute") {
    val s = sheet
    val m1 = s.range(table, "DepDelay")
    val missesAfterFirst = s.cache.missCount
    val m2 = s.range(table, "DepDelay")
    assert(s.cache.missCount == missesAfterFirst)
    assert(s.cache.hitCount >= 1)
    assert(m1.count == m2.count)
  }

  test("a table reloaded under the same id with other rows gets a fresh range") {
    val s = sheet
    def load(rows: Long) =
      repro.storage.ColumnStore.fromDataFrame("reloaded", spark.range(rows).toDF("x")).warm()
    val first  = load(100)
    val second = load(300)
    assert(s.range(first, "x").max == 99.0)
    assert(s.range(second, "x").max == 299.0)
    assert(s.cache.missCount == 2 && s.cache.hitCount == 0)
    first.drop(); second.drop()
  }

  test("filtering the same source again hits the cached range") {
    val s = sheet
    def delayed() = table.filter("delayed", new Positive("DepDelay")).warm()
    val (f1, f2) = (delayed(), delayed())
    assert(f1.cacheKey == f2.cacheKey && f1.sourceBlocksId == table.blocks.id)
    val m1 = s.range(f1, "ArrDelay")
    val m2 = s.range(f2, "ArrDelay")
    assert(s.cache.missCount == 1 && s.cache.hitCount == 1)
    assert(m1.count == m2.count && m1.min > Double.NegativeInfinity)
    f1.drop(); f2.drop()
  }

  test("histogram viz matches the exact DataFrame bucketing") {
    val s   = sheet
    val viz = s.histogram(table, "Distance", buckets = 20, sampled = false)
    val m   = s.range(table, "Distance")
    val width = (m.max - m.min) / 20
    val exact = df.filter(col("Distance").isNotNull)
      .groupBy(least(floor((col("Distance") - m.min) / width), lit(19)).cast("int").as("b"))
      .count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    (0 until 20).foreach(b => assert(viz.result.counts(b) == exact.getOrElse(b, 0L), s"bucket $b"))
  }

  test("sampled histogram renders within a pixel of the exact one") {
    val s     = sheet
    val exact = s.histogram(table, "DepDelay", sampled = false)
    val smp   = s.histogram(table, "DepDelay", sampled = true)
    val pe    = Render.histogramPixels(exact.result, 200)
    val ps    = Render.histogramPixels(smp.result, 200)
    val off   = pe.indices.count(i => math.abs(pe(i) - ps(i)) > 2)
    assert(off <= 2, s"$off bars off by more than two pixels")
  }

  test("histogramWithCdf zips both summaries in one tree") {
    val viz = sheet.histogramWithCdf(table, "DepDelay")
    val (hist, cdf) = viz.result
    assert(hist.counts.length == 100)
    assert(cdf.counts.length == 200)
    assert(viz.info.totalMs > 0 && viz.info.rootBytes > 0)
  }

  test("string histogram buckets every origin airport") {
    val viz = sheet.stringHistogram(table, "Origin")
    val (bk, hist) = viz.result
    assert(bk.count <= 50)
    assert(hist.counts.sum == table.numRows)
  }

  test("string histogram on a small domain gets one bucket per value") {
    val viz = sheet.stringHistogram(table, "Carrier")
    val (bk, hist) = viz.result
    assert(bk.isInstanceOf[ExactStringBuckets])
    assert(bk.count == df.select("Carrier").distinct().count())
    assert(hist.counts.forall(_ > 0))
  }

  test("heatmap counts match DataFrame 2-D bucketing totals") {
    val viz = sheet.heatmap(table, "DepDelay", "ArrDelay", bins = 20)
    val nonMissing = df.filter(col("DepDelay").isNotNull && col("ArrDelay").isNotNull).count()
    assert(viz.result.cells.sum == nonMissing)
  }

  test("stacked histogram with cdf runs and bars cover all carriers") {
    val viz = sheet.stackedHistogramWithCdf(table, "DepHour", "Carrier")
    val (st, cdf) = viz.result
    assert(st.by == df.select("Carrier").distinct().count())
    assert(cdf.counts.length == 200)
  }

  test("nextItems equals DataFrame orderBy/limit with duplicate aggregation") {
    val viz = sheet.nextItems(table, Seq(SortCol("Distance")), k = 10)
    val exact = df.groupBy("Distance").count().orderBy("Distance").limit(10)
      .collect().map(r => (r.getInt(0).toDouble, r.getLong(1)))
    val got = viz.result.rows.map { case (k, c) => (k.cells.head.asInstanceOf[NumCell].v, c) }
    assert(got == exact.toVector)
  }

  test("quantileThenNext lands near the requested quantile") {
    val viz = sheet.quantileThenNext(table, Seq(SortCol("DepDelay")), 0.5, k = 5)
    assert(viz.result.rows.nonEmpty)
    val top = viz.result.rows.head._1.cells.head.asInstanceOf[NumCell].v
    val exactMedian = df.stat.approxQuantile("DepDelay", Array(0.5), 0.001)(0)
    val m = sheet.range(table, "DepDelay")
    assert(math.abs(top - exactMedian) < (m.max - m.min) * 0.05,
      s"jumped to $top, exact median $exactMedian")
  }

  test("O4 ships at most 800 KB to the root at 250k rows, in one partial or two") {
    val big = repro.storage.ColumnStore.fromDataFrame("flights-250k",
      Datasets.flightsDf(spark, 250000).coalesce(2)).warm()
    try {
      val sort5 = Seq("DepDelay", "ArrDelay", "Distance", "TaxiIn", "TaxiOut").map(SortCol(_))
      val limit = 800L * 1000
      val viz   = sheet.quantileThenNext(big, sort5, 0.5)
      assert(viz.result.rows.nonEmpty)
      assert(viz.info.rootBytes <= limit, s"O4 root bytes ${viz.info.rootBytes}")
      // The same quantile tree with its two leaves merged before they reach
      // the root, and with the second leaf held back into a partial of its own.
      val n    = sheet.defaultScrollV * sheet.defaultScrollV
      val sk   = QuantileSketch(sort5, n, SampleSize.rate(n + 600L, big.numRows))
      val next = sheet.nextItems(big, sort5, start = QuantileSketch.quantileOf(
        ExecutionTree.run(big, sk, seed = 1), sort5, 0.5)).info.rootBytes
      val one  = ExecutionTree.runProgressive(big, sk, seed = 1, aggregationIntervalMs = 60000)
      val two  = ExecutionTree.runProgressive(big, DelayedLeaves(sk, 500), seed = 1)
      assert(one.updates == 1 && two.updates == 2)
      assert(one.finalValue == two.finalValue)
      for (r <- Seq(one, two)) assert(r.totalBytes + next <= limit, s"${r.updates} partials: ${r.totalBytes} + $next bytes")
    } finally big.drop()
  }

  test("O4's root bytes are the sum of its two trees' updates") {
    val sort      = Seq(SortCol("Origin", ascending = false), SortCol("DepDelay"))
    val viz       = sheet.quantileThenNext(table, sort, 0.25)
    val (q, next) = viz.info.partials.span(_.value.isInstanceOf[QuantileSummary])
    assert(q.nonEmpty && next.nonEmpty && next.forall(_.value.isInstanceOf[NextItemsSummary]))
    assert(q.last.leavesDone == q.last.leavesTotal && next.last.leavesDone == next.last.leavesTotal)
    def bytes(tree: Seq[Partial[_]]) = tree.map(p => Serde.sizeOf(p.update.get)).sum
    assert(viz.info.rootBytes == bytes(q) + bytes(next))
    assert(viz.info.updates == q.length + next.length)
  }

  test("findText locates the first match in sort order") {
    val viz = sheet.findText(table, "Origin", "SFO", ExactMatch, caseSensitive = true,
      Seq(SortCol("Origin")))
    assert(viz.result.matches == df.filter(col("Origin") === "SFO").count())
    assert(viz.result.firstMatch.get.cells.head == StrCell("SFO"))
  }

  test("heavy hitters (sampling) honors the Theorem-4 contract") {
    // Every value with frequency ≥ 1/K must be found; none ≤ 1/4K.
    val k      = 30
    val viz    = sheet.heavyHittersSampling(table, "Origin", k)
    val total  = table.numRows.toDouble
    val shares = df.groupBy("Origin").count().collect()
      .map(r => r.getString(0) -> r.getLong(1) / total).toMap
    val got = viz.result.map(_._1).toSet
    val mustFind = shares.filter(_._2 >= 1.0 / k).keySet
    val mustSkip = shares.filter(_._2 <= 1.0 / (4 * k)).keySet
    assert(mustFind.subsetOf(got), s"missing: ${mustFind.diff(got)}")
    assert(got.intersect(mustSkip).isEmpty, s"false positives: ${got.intersect(mustSkip)}")
  }

  test("heavy hitters (streaming) counts exactly for small domains") {
    val viz   = sheet.heavyHittersStreaming(table, "Carrier", 12)
    val exact = df.groupBy("Carrier").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    viz.result.foreach { case (c, n) => assert(n.toLong == exact(c), s"carrier $c") }
  }

  test("distinct count is within HLL error of the exact count") {
    val viz   = sheet.distinctCount(table, "FlightNum")
    val exact = df.select("FlightNum").distinct().count()
    assert(math.abs(viz.result - exact) / exact < 0.05, s"got ${viz.result}, exact $exact")
  }

  test("pca on correlated delay columns finds the joint component") {
    val viz = sheet.pca(table, Seq("DepDelay", "ArrDelay", "Distance"), 1, sampled = false)
    val v   = viz.result.eigenvectors(0)
    // DepDelay and ArrDelay are strongly correlated; Distance independent.
    assert(math.abs(v(0)) > 0.5 && math.abs(v(1)) > 0.5 && math.abs(v(2)) < 0.3)
  }

  test("RunInfo reports progressive metadata") {
    val viz = sheet.histogramWithCdf(table, "ArrDelay")
    assert(viz.info.updates >= 1)
    assert(viz.info.firstPartialMs <= viz.info.totalMs)
    assert(viz.info.rootBytes > 0)
  }
}

/** Wraps a sketch so that every leaf but the first (block id 0) starts
  * `delayMs` late — forces leaves to reach the root in separate partials.
  * Top-level so Spark can serialize it without capturing the test suite.
  */
final case class DelayedLeaves[S](inner: Sketch[S], delayMs: Long) extends Sketch[S] {
  def name = inner.name
  def zero = inner.zero
  def summarize(b: repro.storage.ColumnarBlock, ctx: LeafCtx): S = {
    if (ctx.blockId != 0) Thread.sleep(delayMs)
    inner.summarize(b, ctx)
  }
  def merge(a: S, b: S): S = inner.merge(a, b)
}

/** Rows whose `column` is positive. */
final class Positive(column: String) extends repro.storage.RowPred {
  def apply(b: repro.storage.ColumnarBlock, i: Int): Boolean = b.column(column).asDouble(i) > 0.0
}
