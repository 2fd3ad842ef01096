package perfbench

import repro.core._
import repro.engine.LocalWorker
import repro.storage.{ColumnarBlock, DoubleColumn}

/** Leaf throughput of each vizketch: one thread running `LocalWorker.run`
  * over all blocks of the workload's table, with the parameters the
  * spreadsheet uses for the same chart, plus a hand-written loop over the
  * same `NumericBuckets` as `histogram_streaming` (ROADMAP item 2's gate is
  * the ratio of the two).
  */
object CoreBench {

  final case class Result(name: String, rowsPerS: Double, summaryBytes: Long)

  def sketches(blocks: IndexedSeq[ColumnarBlock]): Seq[(String, Sketch[_])] = {
    def run[S](sk: Sketch[S]): S = LocalWorker.run(blocks, sk, 1)
    val rows     = blocks.map(_.rowCount.toLong).sum
    val dep      = run(MomentsSketch("DepDelay"))
    val arr      = run(MomentsSketch("ArrDelay"))
    val hour     = run(MomentsSketch("DepHour"))
    val carriers = run(StringBucketsSketch("Carrier"))
    val rate     = SampleSize.rate(SampleSize.histogram(200), dep.present)
    val hourRate = SampleSize.rate(SampleSize.stackedHistogram(200), hour.present)
    Seq(
      "histogram_streaming" -> StreamingHistogramSketch("DepDelay", NumericBuckets(dep.min, dep.max, 100)),
      "histogram_sampled"   -> SampledHistogramSketch("DepDelay", NumericBuckets(dep.min, dep.max, 100), rate),
      "cdf"                 -> CdfSketch("DepDelay", dep.min, dep.max, 200, rate),
      "stacked"             -> StackedHistogramSketch("DepHour", NumericBuckets(hour.min, hour.max, 50),
        "Carrier", StringBucketsSketch.toBuckets(carriers, 20), hourRate),
      "heatmap"             -> HeatmapSketch("DepDelay", NumericBuckets(dep.min, dep.max, 66),
        "ArrDelay", NumericBuckets(arr.min, arr.max, 66)),
      "trellis"             -> TrellisHeatmapSketch("Carrier", StringBucketsSketch.toBuckets(carriers, 4),
        "DepDelay", NumericBuckets(dep.min, dep.max, 33), "ArrDelay", NumericBuckets(arr.min, arr.max, 33)),
      "moments"             -> MomentsSketch("DepDelay"),
      "string_buckets"      -> StringBucketsSketch("Origin"),
      "next_items"          -> NextItemsSketch(Seq(SortCol("Carrier")), 20),
      "quantile"            -> QuantileSketch(Tabular.Sort5, 10000),
      "hll"                 -> HllSketch("FlightNum"),
      "hh_sampling"         -> SamplingHeavyHittersSketch("Origin", SampleSize.rate(SampleSize.heavyHitters(20), rows)),
      "misra_gries"         -> MisraGriesSketch("Carrier", 100),
      "find_text"           -> FindTextSketch("Origin", "sfo", ExactMatch, caseSensitive = false, Seq(SortCol("DepDelay"))))
  }

  /** The streaming histogram's work as a plain loop over the primitive array. */
  def handLoop(blocks: IndexedSeq[ColumnarBlock], bk: NumericBuckets): Long = {
    val counts = new Array[Long](bk.count)
    var outside = 0L
    blocks.foreach { b =>
      val xs = b.column("DepDelay").asInstanceOf[DoubleColumn].values
      var i  = 0
      while (i < xs.length) {
        val x = xs(i)
        if (!x.isNaN) { val k = bk.indexOf(x); if (k >= 0) counts(k) += 1 else outside += 1 }
        i += 1
      }
    }
    counts.sum + outside
  }

  /** Median seconds of `f` after two warm-up calls: at least three timed
    * calls and at least `minS` seconds of them.
    */
  def time(f: () => Any, minS: Double = 0.2): Double = {
    f(); f()
    val xs = collection.mutable.ArrayBuffer.empty[Double]
    var total = 0.0
    while (xs.length < 3 || (total < minS && xs.length < 25)) {
      val t0 = System.nanoTime()
      f()
      val s = (System.nanoTime() - t0) / 1e9
      xs += s; total += s
    }
    Stats.median(xs.toSeq)
  }

  def run(blocks: IndexedSeq[ColumnarBlock], seed: Long): Seq[Result] = {
    val rows = blocks.map(_.rowCount.toLong).sum.toDouble
    val sks  = sketches(blocks)
    val results = sks.map { case (name, sk) =>
      val s = time(() => LocalWorker.run(blocks, sk, 1, seed))
      Result(name, rows / s, Serde.sizeOf(sk.summarize(blocks.head, LeafCtx(0, seed))))
    }
    val bk = sks.head._2.asInstanceOf[StreamingHistogramSketch].buckets.asInstanceOf[NumericBuckets]
    results :+ Result("hand_loop", rows / time(() => handLoop(blocks, bk)), -1L)
  }
}
