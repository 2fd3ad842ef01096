package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baseline.SparkBaseline
import repro.engine.ComputationCache
import repro.spreadsheet.{Ops, Spreadsheet}

/** T2 — Fig. 5: end-to-end warm comparison. For each dataset size, runs
  * every Fig. 4 operation on (a) the Hillview engine (columnar cache +
  * progressive execution trees) and (b) the Spark DataFrame baseline, and
  * reports response time, Hillview's first-partial time, and the bytes
  * the root/master received.
  */
object T2EndToEndWarm {

  final case class Row(op: String, size: String, system: String,
                       totalMs: Double, firstPartialMs: Double, bytes: Long, note: String)

  /** Paper's ladder is 5x/10x/100x of 130M rows; ours is a single-node
    * ladder (labels keep the relative factors).
    */
  def defaultSizes: Seq[(String, Long)] = Seq("1x" -> 2_000_000L, "2x" -> 4_000_000L, "5x" -> 10_000_000L)

  def run(spark: SparkSession, sizes: Seq[(String, Long)] = defaultSizes,
          reps: Int = 3): Seq[Row] = {
    val out = Seq.newBuilder[Row]
    for ((label, rows) <- sizes) {
      val table = Datasets.flightsTable(spark, rows, label)
      val sheet = new Spreadsheet(new ComputationCache())
      // One unmeasured warm-up pass primes the JIT and the computation
      // cache (ranges), matching the paper's warm setting; then the lower
      // median of the measured reps is reported (the paper excludes the
      // slowest/fastest measurements).
      for ((op, _, fn) <- Ops.all) {
        fn(sheet, table)
        val results = (0 until math.max(1, reps)).map(_ => fn(sheet, table))
        val mid     = results.sortBy(_.totalMs).apply((results.length - 1) / 2)
        out += Row(op, label, "Hillview", mid.totalMs, mid.firstPartialMs, mid.rootBytes, mid.note)
      }
      table.drop()

      val df = Datasets.flightsBaseline(spark, rows)
      for ((op, fn) <- SparkBaseline.all) {
        fn(df)
        val results = (0 until math.max(1, reps)).map(_ => fn(df))
        val mid     = results.sortBy(_.totalMs).apply((results.length - 1) / 2)
        out += Row(op, label, "Spark", mid.totalMs, 0.0, mid.masterBytes, mid.note)
      }
      df.unpersist(blocking = true)
    }
    out.result()
  }

  def render(rows: Seq[Row]): String =
    TableText.render("T2 (Fig. 5): end-to-end warm — response time and root-received bytes",
      Seq("Op", "Size", "System", "Total (ms)", "First partial (ms)", "Root bytes", "Note"),
      rows.map(r => Seq(r.op, r.size, r.system, TableText.fmtMs(r.totalMs),
        if (r.system == "Hillview") TableText.fmtMs(r.firstPartialMs) else "-",
        TableText.fmtBytes(r.bytes), r.note)))
}

/** T3 — Fig. 6: end-to-end with cold data read from disk (parquet). O4
  * and O6 are omitted as in the paper. Each measurement re-reads the
  * file; nothing is cached between operations. One untimed query on a
  * throwaway table first pays the JVM's first parquet read and code
  * generation, so that the first measured row is comparable to the rest.
  */
object T3EndToEndCold {

  final case class Row(op: String, size: String, totalMs: Double,
                       firstPartialMs: Double, bytes: Long)

  // Cold re-reads the file for every execution tree, so the ladder stays
  // at 1x/2x to keep the bench inside its time budget on a noisy VM.
  def defaultSizes: Seq[(String, Long)] = Seq("1x" -> 2_000_000L, "2x" -> 4_000_000L)

  def run(spark: SparkSession, dir: String,
          sizes: Seq[(String, Long)] = defaultSizes): Seq[Row] = {
    // A fresh uncached table per operation: every query pays the read.
    def query(path: String, label: String, fn: Ops.OpFn): Ops.OpResult =
      fn(new Spreadsheet(new ComputationCache()), Datasets.flightsCold(spark, path, label))
    for ((label, rows) <- sizes.headOption; (_, _, fn) <- Ops.coldOps.headOption)
      query(Datasets.writeParquet(spark, rows, dir), s"$label-warmup", fn)
    val out = Seq.newBuilder[Row]
    for ((label, rows) <- sizes) {
      val path = Datasets.writeParquet(spark, rows, dir)
      for ((op, _, fn) <- Ops.coldOps) {
        val r = query(path, label, fn)
        out += Row(op, label, r.totalMs, r.firstPartialMs, r.rootBytes)
      }
    }
    out.result()
  }

  def render(rows: Seq[Row]): String =
    TableText.render("T3 (Fig. 6): end-to-end cold (data read from disk per query)",
      Seq("Op", "Size", "Total (ms)", "First partial (ms)", "Root bytes"),
      rows.map(r => Seq(r.op, r.size, TableText.fmtMs(r.totalMs),
        TableText.fmtMs(r.firstPartialMs), TableText.fmtBytes(r.bytes))))
}
