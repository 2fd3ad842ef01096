package repro.engine

import java.util.concurrent.{Callable, Executors, TimeUnit}
import repro.core.Sketch
import repro.storage.ColumnarBlock
import scala.jdk.CollectionConverters._

/** One Hillview worker node: a set of in-memory micropartitions served by
  * a thread pool of leaves (§5.3: "there is a thread pool that serves
  * leafs with work to do"). Used by the microbenchmarks (§7.2), where the
  * paper pins the leaf count and thread count explicitly; the distributed
  * path is [[ExecutionTree]].
  *
  * Seed rule: block `i` is summarized as `LeafFold` summarizes the block
  * of Spark partition `i`, so over the collected blocks of a table whose
  * partitions are all non-empty, `LocalWorker` and [[ExecutionTree]] draw
  * the same samples.
  */
object LocalWorker {

  /** Run `sk` over `blocks` with exactly `threads` leaf threads (on the
    * calling thread when `threads == 1`) and merge the results at the
    * (local) root. Deterministic in `seed` and block order.
    */
  def run[S](blocks: IndexedSeq[ColumnarBlock], sk: Sketch[S], threads: Int, seed: Long = 0L): S = {
    require(threads > 0, "need at least one thread")
    val leaf = LeafFold(sk, seed)
    def summarize(i: Int): S = leaf(i, Iterator.single(blocks(i))).next()
    val summaries =
      if (threads == 1) blocks.indices.map(summarize)
      else {
        val pool = Executors.newFixedThreadPool(threads)
        try pool.invokeAll(blocks.indices.map(i => new Callable[S] { def call(): S = summarize(i) }).asJava)
          .asScala.map(_.get())
        finally {
          pool.shutdown()
          pool.awaitTermination(60, TimeUnit.SECONDS)
        }
      }
    summaries.foldLeft(sk.zero)(sk.merge)
  }

  /** Wall-clock milliseconds of `run`: the minimum of `reps` after
    * `warmups` JIT warm-up runs. The paper discards extreme measurements
    * because "the variance tends to be small" on its dedicated testbed;
    * on a shared VM with a kernel pageout daemon the minimum is the only
    * estimator that isolates the algorithm from scheduling noise.
    */
  def timeMs[S](blocks: IndexedSeq[ColumnarBlock], sk: Sketch[S], threads: Int,
                seed: Long = 0L, reps: Int = 5, warmups: Int = 2): Double = {
    var w = 0
    while (w < warmups) { run(blocks, sk, threads, seed); w += 1 }
    (0 until reps).map { _ =>
      val t0 = System.nanoTime()
      run(blocks, sk, threads, seed)
      (System.nanoTime() - t0) / 1e6
    }.min
  }
}

/** Simulated multi-server cluster for the Fig. 8 scalability experiment.
  *
  * Substitution (see DESIGN.md): we have one physical machine, so the n
  * "servers" run one after another, each with its own thread budget; the
  * simulated cluster latency is the *maximum* per-server time (servers
  * run concurrently in a real deployment and the execution tree's merge
  * cost is negligible — summaries are O(screen)-sized). This preserves
  * the paper's shapes: constant latency for streaming sketches, falling
  * latency for sampled ones. Server `s` is a `LocalWorker` run with seed
  * `seed + s`.
  */
object ClusterSim {

  final case class Result(simulatedLatencyMs: Double, perServerMs: IndexedSeq[Double])

  def run[S](serverBlocks: IndexedSeq[IndexedSeq[ColumnarBlock]], sk: Sketch[S],
             threadsPerServer: Int, seed: Long = 0L, reps: Int = 3): Result = {
    val perServer = serverBlocks.zipWithIndex.map { case (blocks, s) =>
      LocalWorker.timeMs(blocks, sk, threadsPerServer, seed + s, reps = reps, warmups = 1)
    }
    Result(perServer.max, perServer)
  }
}
