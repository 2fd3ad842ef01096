package perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.data.Flights
import repro.storage.{CachedTable, ColumnStore}
import scala.collection.mutable.ArrayBuffer

/** The analyst-session benchmark: one client issues a named workload's
  * spreadsheet actions as a closed loop over a warm table, checks every
  * answer, and prints the end-to-end metrics (`--trace 0`) or the
  * per-layer metrics of a traced run (`--trace 1`). The last line of
  * standard output is one JSON object.
  *
  * {{{
  * perfbench.Main --workload charts --seed 1 --seconds 8 --trace 0 [--git-sha SHA]
  * }}}
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, gitSha: String) {
    /** Run records and span files, relative to the repository root. */
    val out = "perfbench/runs"
  }

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      m.getOrElse("git-sha", "unknown"))
  }

  /** Spark task threads, and so leaves: half the processors. The client,
    * Spark's scheduler, the collector and the JIT keep processors of their
    * own, and on a shared host a leaf delayed by another tenant no longer
    * holds up every action.
    */
  val SparkThreads: Int = math.max(1, Runtime.getRuntime.availableProcessors() / 2)

  /** Table builds per run; set-up time is their median. */
  val SetupRepeats = 3

  /** One measured pass sequence: per-action latencies and failures. */
  final class Loop {
    val finalMs   = ArrayBuffer.empty[Double]
    val firstMs   = ArrayBuffer.empty[Double]
    val names     = ArrayBuffer.empty[String]
    val passMs    = ArrayBuffer.empty[Double]
    /** Host CPU steal share during each pass (`measureCalm` only). */
    val passSteal = ArrayBuffer.empty[Double]
    var failed    = 0
    val problems  = ArrayBuffer.empty[String]
    var busyMs    = 0.0
    def attempted = finalMs.length
    /** Actions per second of the median pass. Every pass runs the same
      * actions, so this is the run's throughput with passes that a burst
      * of host load or a collection slowed counted as one pass each.
      */
    def opsPerS =
      if (passMs.isEmpty) 0.0 else attempted.toDouble / passMs.length / (Stats.median(passMs.toSeq) / 1000.0)
    def ++=(o: Loop): Unit = {
      finalMs ++= o.finalMs; firstMs ++= o.firstMs; names ++= o.names; passMs ++= o.passMs
      passSteal ++= o.passSteal; failed += o.failed; problems ++= o.problems; busyMs += o.busyMs
    }
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workload.named(o.workload)
    val t0 = System.nanoTime()
    val spark = SparkSession.builder()
      .master(s"local[$SparkThreads]")
      .appName(s"perfbench-${w.name}")
      .config("spark.ui.enabled", false)
      .config("spark.sql.shuffle.partitions", SparkThreads)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sparkStartS = (System.nanoTime() - t0) / 1e9
    try run(o, w, spark, sparkStartS)
    finally spark.stop()
  }

  /** Generate and cache the flights rows, then ingest them into the
    * columnar cache: (cached rows, table, generation s, ingest s).
    */
  def build(spark: SparkSession, rows: Long, seed: Long): (DataFrame, CachedTable, Double, Double) = {
    import org.apache.spark.sql.functions.col
    val g0 = System.nanoTime()
    val df = Flights.gen(spark, rows, seed).select(Workload.Columns.map(col): _*)
      .persist(StorageLevel.MEMORY_ONLY)
    df.count()
    val g1 = System.nanoTime()
    val t  = ColumnStore.fromDataFrame(s"flights-$seed", df).warm()
    val g2 = System.nanoTime()
    (df, t, (g1 - g0) / 1e9, (g2 - g1) / 1e9)
  }

  def run(o: Opts, w: Workload, spark: SparkSession, sparkStartS: Double): Unit = {
    val sc = spark.sparkContext
    val builds = (1 to SetupRepeats).map { i =>
      val b = build(spark, w.rows, o.seed)
      if (i < SetupRepeats) { b._2.drop(); b._1.unpersist(blocking = true) }
      b
    }
    val (df, table, _, _) = builds.last
    val genS    = Stats.median(builds.map(_._3))
    val ingestS = Stats.median(builds.map(_._4))

    val r0      = System.nanoTime()
    val ref     = new Reference(df)
    val session = w.start(table, ref, o.seed)
    df.unpersist(blocking = true)
    Console.err.println(f"perfbench: builds ${builds.map(b => b._3 + b._4).mkString(", ")} s, " +
      f"reference ${(System.nanoTime() - r0) / 1e9}%.1f s")

    val w0 = System.nanoTime()
    val warm = new Loop
    (0 until w.warmupPasses).foreach(p => runPass(session, p, o.seed, warm))
    val warmupS = (System.nanoTime() - w0) / 1e9
    val setupS  = sparkStartS + Stats.median(builds.map(b => b._3 + b._4)) + warmupS

    val machine = Map(
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "heap_mb" -> Runtime.getRuntime.maxMemory() / (1 << 20),
      "java" -> System.getProperty("java.version"),
      "spark" -> spark.version,
      "git_sha" -> o.gitSha,
      "rows" -> table.numRows,
      "blocks" -> table.blocks.count(),
      "leaves" -> table.numLeaves,
      "seed" -> o.seed,
      "workload" -> w.name)
    val cacheMb = sc.getRDDStorageInfo.filter(_.id == table.blocks.id).map(_.memSize).sum / 1e6

    // `loop` holds the measured passes; `skipped` those run and checked
    // but not measured because other tenants held the host.
    val result: (Loop, Loop, Map[String, (Double, String)]) =
      if (!o.trace) {
        val loop    = new Loop
        val skipped = measureCalm(session, o.seed, o.seconds, w.warmupPasses, loop)
        (loop, skipped, endToEnd(loop, setupS, cacheMb))
      } else {
        val tr = new TracedRun(spark, table, session, o, w.name)
        val (loop, m) = tr.run(firstPass = w.warmupPasses, genS, ingestS)
        (loop, new Loop, m)
      }
    val (loop, skipped, metrics) = result
    val attempted = loop.attempted + skipped.attempted
    val failed    = loop.failed + skipped.failed
    val problems  = loop.problems ++ skipped.problems
    Console.err.println(f"perfbench: warm-up ${warmupS}%.1f s, measured ${(System.nanoTime() - w0) / 1e9 - warmupS}%.1f s")

    val base = s"${o.out}/${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    new File(o.out).mkdirs()
    val record = Map(
      "machine" -> machine,
      "setup" -> Map("spark_start_s" -> sparkStartS, "gen_s" -> builds.map(_._3),
        "ingest_s" -> builds.map(_._4), "warmup_s" -> warmupS, "warmup_pass_ms" -> warm.passMs),
      "failed_ratio" -> (if (attempted > 0) failed.toDouble / attempted else 0.0),
      "problems" -> problems.take(20),
      "pass_ms" -> loop.passMs,
      "pass_steal" -> loop.passSteal,
      "skipped" -> Map("pass_ms" -> skipped.passMs, "pass_steal" -> skipped.passSteal),
      "per_action" -> loop.names.indices.groupBy(loop.names).map { case (n, is) =>
        n -> Map("n" -> is.size, "final_ms_p50" -> Stats.median(is.map(loop.finalMs)),
          "first_partial_ms_p50" -> Stats.median(is.map(loop.firstMs)))
      },
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) })
    write(base + ".json", Stats.json(record))

    println("machine " + Stats.json(machine))
    problems.take(5).foreach(p => println("FAILED " + p))
    println(f"workload ${w.name}: $attempted actions, $failed failed (failed_ratio ${record("failed_ratio")}); " +
      f"${loop.passMs.length + skipped.passMs.length} passes, ${skipped.passMs.length} not measured for host CPU steal; " +
      f"record $base.json")
    metrics.toSeq.sortBy(_._1).foreach { case (k, (v, u)) => println(f"  $k%-40s $v%14.4f $u") }
    println(Stats.json(Map("correct" -> (failed == 0), "attempted" -> attempted,
      "failed" -> failed, "metrics" -> record("metrics"))))
  }

  def write(path: String, text: String): Unit = {
    val pw = new PrintWriter(path, "UTF-8")
    try pw.println(text) finally pw.close()
  }

  /** One pass: the session's actions in a seeded shuffle, each issued only
    * after the previous one completed, checked off the clock.
    */
  def runPass(session: Session, p: Int, seed: Long, loop: Loop,
              around: (Action, () => Done) => Done = (_, f) => f()): Unit = {
    val order = new scala.util.Random(seed * 1000003L + p).shuffle(session.actions)
    val busy0 = loop.busyMs
    order.foreach { a =>
      val issued = System.nanoTime()
      val done =
        try Some(around(a, () => a.run(issued)))
        catch { case e: Exception => loop.problems += s"${a.name} threw $e"; None }
      val ms = Stats.ms(issued, System.nanoTime())
      loop.finalMs += ms
      loop.names += a.name
      loop.busyMs += ms
      done match {
        case Some(d) =>
          loop.firstMs += d.firstPartialMs
          val problem =
            try d.check()
            catch { case e: Exception => Some(s"${a.name} check threw $e") }
          problem.foreach { msg => loop.failed += 1; loop.problems += msg }
        case None =>
          loop.firstMs += ms
          loop.failed += 1
      }
    }
    loop.passMs += loop.busyMs - busy0
  }

  /** Fewest actions in a measured run, so the 90th percentile has at
    * least ten samples beyond it.
    */
  val MinActions = 100

  /** Whole passes, added to `loop`, until `seconds` have elapsed and the
    * loop holds `MinActions`; returns the index of the next pass.
    */
  def measure(session: Session, seed: Long, seconds: Double, firstPass: Int, loop: Loop,
              around: (Action, () => Done) => Done = (_, f) => f()): Int = {
    val start = System.nanoTime()
    var p     = firstPass
    while ((System.nanoTime() - start) / 1e9 < seconds || loop.attempted < MinActions) {
      runPass(session, p, seed, loop, around)
      p += 1
    }
    p
  }

  /** Host CPU steal share above which a pass is not measured. On a
    * shared 4-core VM most passes read 0 (a jiffy is 0.3–0.8% of a pass);
    * when other tenants load the host, passes read 1–20% and every action
    * slows: by about 13% at 2–3% and by up to twice at 10–20%.
    */
  val MaxStealShare = 0.01

  /** Measured passes, added to `loop`: passes are run until the calm ones,
    * during which the hypervisor gave at most `MaxStealShare` of the VM's
    * CPU time to other tenants, hold `seconds` of action time and
    * `MinActions`, or for twice `seconds`. The calm passes are measured; if
    * they are too few, so are the next calmest, until there are enough.
    * The rest were run and checked but not measured, and are returned.
    * Traced runs use `measure`: their spans and job log cover every pass.
    */
  def measureCalm(session: Session, seed: Long, seconds: Double, firstPass: Int, loop: Loop): Loop = {
    val passes = ArrayBuffer.empty[Loop]
    def steal(l: Loop) = l.passSteal.head
    def enough(ls: Iterable[Loop]) =
      ls.map(_.passMs.sum).sum >= seconds * 1000 && ls.map(_.attempted).sum >= MinActions
    val start = System.nanoTime()
    def timeUp = (System.nanoTime() - start) / 1e9 >= 2 * seconds
    var p = firstPass
    while (!enough(passes.filter(steal(_) <= MaxStealShare)) && !(timeUp && enough(passes))) {
      val one = new Loop
      val s0  = Steal.read()
      runPass(session, p, seed, one)
      one.passSteal += Steal.share(s0, Steal.read())
      passes += one
      p += 1
    }
    val calmest = passes.sortBy(steal)
    var n = passes.count(steal(_) <= MaxStealShare)
    while (!enough(calmest.take(n))) n += 1
    val measured = calmest.take(n).toSet
    val skipped  = new Loop
    passes.foreach(l => if (measured(l)) loop ++= l else skipped ++= l)
    skipped
  }

  def endToEnd(loop: Loop, setupS: Double, cacheMb: Double): Map[String, (Double, String)] = Map(
    "final_ms_p50" -> (Stats.percentile(loop.finalMs.toSeq, 50), "ms"),
    "final_ms_p90" -> (Stats.percentile(loop.finalMs.toSeq, 90), "ms"),
    "first_partial_ms_p50" -> (Stats.percentile(loop.firstMs.toSeq, 50), "ms"),
    "first_partial_ms_p90" -> (Stats.percentile(loop.firstMs.toSeq, 90), "ms"),
    "ops_per_s" -> (loop.opsPerS, "1/s"),
    "setup_s" -> (setupS, "s"),
    "cache_mb" -> (cacheMb, "MB"))
}

/** The VM's CPU steal counter in /proc/stat: jiffies in which the
  * hypervisor ran other tenants while this VM's processors were ready to
  * run, and all jiffies. Zero where the counter cannot be read.
  */
object Steal {
  def read(): (Long, Long) =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      val f =
        try src.getLines().next().trim.split("\\s+").slice(1, 9).map(_.toLong)
        finally src.close()
      (f(7), f.sum)
    } catch { case _: Exception => (0L, 0L) }

  def share(from: (Long, Long), to: (Long, Long)): Double =
    if (to._2 > from._2) (to._1 - from._1).toDouble / (to._2 - from._2) else 0.0
}
