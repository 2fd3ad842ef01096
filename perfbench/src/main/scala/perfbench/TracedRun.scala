package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.storage.CachedTable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Spark's own record of each job and task, attributed to the action that
  * submitted it through a local property.
  */
final class JobLog extends SparkListener {
  import JobLog._

  val jobs  = ArrayBuffer.empty[Job]
  val tasks = ArrayBuffer.empty[Task]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val a = Option(e.properties).flatMap(p => Option(p.getProperty(JobLog.Action))).map(_.toInt)
    jobs += Job(e.jobId, a.getOrElse(-1), e.time, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.find(_.id == e.jobId).foreach(_.end = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) tasks += Task(e.stageId, e.taskInfo.finishTime - e.taskInfo.launchTime,
      m.executorRunTime, m.executorDeserializeTime + m.resultSerializationTime, m.resultSize)
  }
}

object JobLog {
  val Action = "perfbench.action"

  final case class Job(id: Int, action: Int, start: Long, stages: Seq[Int]) { var end = -1L }
  final case class Task(stage: Int, ms: Long, runMs: Long, serdeMs: Long, resultBytes: Long)
}

/** The traced run: traced passes, with spans from the trace agent and
  * Spark's job log, between untraced passes of the unwoven program (the
  * reference for the tracing overhead and the JVM counters); then the leaf
  * microbenchmarks.
  * Spans are written to `<out>/<workload>-seed<seed>-spans.jsonl`.
  */
final class TracedRun(spark: SparkSession, table: CachedTable, session: Session, o: Main.Opts,
                      workload: String) {
  private val sc = spark.sparkContext

  private def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def allocBytes: Long = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  def run(firstPass: Int, genS: Double, ingestS: Double): (Main.Loop, Map[String, (Double, String)]) = {
    val log = new JobLog
    sc.addSparkListener(log)
    val actionNames = collection.mutable.Map.empty[String, Int]
    var actionId    = 0
    val traceAction = (a: Action, f: () => Done) => {
      Tracer.action = actionId
      sc.setLocalProperty(JobLog.Action, actionId.toString)
      actionId += 1
      val scope = new Tracer.Scope(actionNames.getOrElseUpdate(a.name, Tracer.register("action." + a.name)))
      try f() finally scope.close()
    }

    // Untraced passes run the program unwoven: the reference for the
    // tracing overhead and for the JVM counters. They come before and after
    // the traced passes, so that drift over the run falls on both alike.
    // After each weave or unweave the JIT recompiles the program's classes
    // over a few passes that are checked but not measured.
    val plain, rewarm, traced = new Main.Loop
    var gcMsSum, allocSum = 0L
    def untraced(p: Int): Int = {
      val gc0 = gcMs; val al0 = allocBytes
      val next = Main.measure(session, o.seed, o.seconds / 2.0, p, plain)
      gcMsSum += gcMs - gc0; allocSum += allocBytes - al0
      next
    }
    def reweave(on: Boolean, p: Int): Int = {
      TraceAgent.weave(on)
      (p until p + TracedRun.RewarmPasses).foreach(i => Main.runPass(session, i, o.seed, rewarm))
      p + TracedRun.RewarmPasses
    }
    var p = reweave(true, untraced(firstPass))
    val (h0, m0) = (session.cache.hitCount, session.cache.missCount)
    Tracer.start()
    p = Main.measure(session, o.seed, o.seconds, p, traced, traceAction)
    Tracer.stop()
    sc.setLocalProperty(JobLog.Action, null)
    val (hits, misses) = (session.cache.hitCount - h0, session.cache.missCount - m0)
    untraced(reweave(false, p))
    val gcPerOp    = gcMsSum.toDouble / plain.attempted
    val allocPerOp = allocSum / 1e6 / plain.attempted
    ListenerBusDrain(sc)
    sc.removeSparkListener(log)
    val spans = Tracer.drain().asScala.toIndexedSeq.filter(_.action >= 0)
    writeSpans(spans)

    val core = CoreBench.run(table.blocks.collect().toIndexedSeq, o.seed)

    val ops     = traced.attempted.toDouble
    val layered = new SpanTree(spans)
    val jobs    = log.jobs.filter(_.action >= 0).toSeq
    val stageJob = jobs.flatMap(j => j.stages.map(_ -> j)).toMap
    val tasks   = log.tasks.filter(t => stageJob.contains(t.stage)).toSeq
    val sched   = jobs.filter(_.end >= 0).map { j =>
      val ts = tasks.filter(t => j.stages.contains(t.stage))
      (j.end - j.start - (if (ts.isEmpty) 0L else ts.map(_.ms).max)).toDouble
    }.sum
    val lookups = hits + misses

    val m = Map[String, (Double, String)](
      "data.gen_s" -> (genS, "s"),
      "storage.ingest_s" -> (ingestS, "s"),
      "storage.ingest_mrows_per_s" -> (table.numRows / ingestS / 1e6, "Mrows/s"),
      "storage.blocks" -> (table.blocks.count().toDouble, "count"),
      "storage.leaves" -> (table.numLeaves.toDouble, "count"),
      "storage.filter_ms_p50" -> (Stats.median(layered.durations("storage.CachedTable.warm")), "ms"),
      "storage.filters_per_op" -> (layered.count("storage.CachedTable.filter") / ops, "count"),
      "engine.leaf_busy_ms" -> (tasks.map(_.runMs).sum / ops, "ms"),
      "engine.root_merge_ms" -> (layered.selfMs(s => s.name.startsWith("core.") && s.name.endsWith(".merge") &&
        !s.thread.startsWith("Executor task launch")) / ops, "ms"),
      "engine.sched_ms" -> (sched / ops, "ms"),
      "engine.serde_ms" -> ((tasks.map(_.serdeMs).sum + layered.durations("engine.Serde.sizeOf").sum) / ops, "ms"),
      "engine.partials_per_op" -> (layered.partials("engine.ExecutionTree.runProgressive").sum / ops, "count"),
      "engine.root_kb_per_op" -> (tasks.map(_.resultBytes).sum / 1024.0 / ops, "KB"),
      "engine.trees_per_op" -> ((layered.count("engine.ExecutionTree.run") +
        layered.count("engine.ExecutionTree.runProgressive")) / ops, "count"),
      "engine.cache_hit_ratio" -> (if (lookups > 0) hits.toDouble / lookups else 0.0, "ratio"),
      "spreadsheet.prep_ms_p50" -> (Stats.median(layered.perAction(SpanTree.isPrep)), "ms"),
      "spreadsheet.render_ms_p50" -> (Stats.median(layered.perAction(s =>
        s.name.startsWith("engine.ExecutionTree.") && !layered.under(s, SpanTree.isPrep))), "ms"),
      "jvm.gc_ms_per_op" -> (gcPerOp, "ms"),
      "jvm.alloc_mb_per_op" -> (allocPerOp, "MB"),
      "trace.ops_per_s_untraced" -> (plain.opsPerS, "1/s"),
      "trace.ops_per_s_traced" -> (traced.opsPerS, "1/s"),
      "trace.slowdown" -> (plain.opsPerS / traced.opsPerS, "ratio"),
    ) ++ Seq("spreadsheet", "engine", "core", "storage").map(l =>
      s"$l.self_ms_per_op" -> (layered.selfMs(_.name.startsWith(l + ".")) / ops, "ms")
    ) ++ core.map(r => s"core.rows_per_s.${r.name}" -> (r.rowsPerS, "rows/s")) ++
      core.filter(_.summaryBytes >= 0).map(r => s"core.summary_bytes.${r.name}" -> (r.summaryBytes.toDouble, "bytes"))

    val both = new Main.Loop
    Seq(plain, rewarm, traced).foreach(both ++= _)
    (both, m)
  }

  private def writeSpans(spans: Seq[Tracer.Span]): Unit = {
    val t0 = if (spans.isEmpty) 0L else spans.map(_.start).min
    val lines = spans.sortBy(_.start).map { s =>
      Stats.json(Map("id" -> s.id, "parent" -> s.parent, "name" -> Tracer.name(s.name),
        "action" -> s.action, "thread" -> s.thread,
        "start_us" -> (s.start - t0) / 1000, "end_us" -> (s.end - t0) / 1000))
    }
    new java.io.File(o.out).mkdirs()
    Main.write(s"${o.out}/$workload-seed${o.seed}-spans.jsonl", lines.mkString("\n"))
  }
}

/** Spans of the traced half with their parent links resolved. */
final class SpanTree(raw: Seq[Tracer.Span]) {
  import SpanTree.S

  val spans: Seq[S] = raw.map(s => S(s.id, s.parent, Tracer.name(s.name), s.action, s.thread,
    s.start, s.end, s.partials))
  private val byId     = spans.map(s => s.id -> s).toMap
  private val children = spans.groupBy(_.parent)

  def count(name: String): Int              = spans.count(_.name == name)
  def durations(name: String): Seq[Double]  = spans.filter(_.name == name).map(_.ms)
  def partials(name: String): Seq[Int]      = spans.filter(_.name == name).map(_.partials)

  /** Duration minus the part of it that child spans cover. */
  def self(s: S): Double = {
    val iv = children.getOrElse(s.id, Nil).map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
      .filter(i => i._2 > i._1).sortBy(_._1)
    var covered = 0L; var curS = 0L; var curE = -1L
    iv.foreach { case (a, b) =>
      if (a > curE) { if (curE > curS) covered += curE - curS; curS = a; curE = b }
      else curE = math.max(curE, b)
    }
    if (curE > curS) covered += curE - curS
    (s.end - s.start - covered) / 1e6
  }

  def selfMs(p: S => Boolean): Double = spans.filter(p).map(self).sum

  def under(s: S, p: S => Boolean): Boolean = {
    var cur = byId.get(s.parent)
    while (cur.isDefined) { if (p(cur.get)) return true; cur = byId.get(cur.get.parent) }
    false
  }

  /** Per action: total duration of the spans matching `p`. */
  def perAction(p: S => Boolean): Seq[Double] = {
    val actions = spans.filter(_.name.startsWith("action.")).map(_.action).distinct
    val sums    = spans.filter(p).groupBy(_.action).map { case (a, xs) => a -> xs.map(_.ms).sum }
    actions.map(a => sums.getOrElse(a, 0.0))
  }
}

object TracedRun {
  /** Passes after weaving or unweaving, while the JIT recompiles the
    * program's classes.
    */
  val RewarmPasses = 3
}

object SpanTree {
  final case class S(id: Long, parent: Long, name: String, action: Int, thread: String,
                     start: Long, end: Long, partials: Int) {
    def ms: Double = (end - start) / 1e6
  }

  /** Preparation trees: the spreadsheet's range and distinct-values requests. */
  def isPrep(s: S): Boolean =
    s.name == "spreadsheet.Spreadsheet.range" || s.name == "spreadsheet.Spreadsheet.stringRange"
}
