package repro.engine

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.rdd.RDD
import scala.concurrent.ExecutionContext
import scala.reflect.ClassTag
import scala.util.{Failure, Success, Try}
import repro.core.{LeafCtx, Serde, Sketch}
import repro.storage.{CachedTable, ColumnarBlock, PartitionFn, PartitionMap}

/** One partial update delivered to the root (§5.3): the merged summary so
  * far, progress (leaves completed), elapsed time, and the update this wave
  * sent up the tree (none for a table without leaves).
  *
  * `bytesThisUpdate` is the root-received bytes the paper plots in Fig. 5
  * (bottom): the Java-serialized size of the merged update, computed when
  * first read. Merges do not modify their arguments, so the update is
  * still the one that was sent.
  */
final case class Partial[S](
    value: S,
    leavesDone: Int,
    leavesTotal: Int,
    elapsedMs: Double,
    update: Option[S]
) {
  lazy val bytesThisUpdate: Long = update.fold(0L)(Serde.sizeOf)
}

/** Outcome of a progressive run: all partials in arrival order. */
final case class ProgressiveResult[S](partials: Vector[Partial[S]], cancelled: Boolean) {
  def finalValue: S          = partials.last.value
  def firstPartialMs: Double = partials.head.elapsedMs
  def totalMs: Double        = partials.last.elapsedMs
  def totalBytes: Long       = partials.map(_.bytesThisUpdate).sum
  def updates: Int           = partials.length
}

/** The distributed execution tree (§5.3): leaves run `summarize` over
  * micropartitions in parallel; aggregation nodes `merge`; the root
  * receives a stream of partial results (`runProgressive`) without
  * waiting for stragglers. A blocking answer (`run`) is the last partial.
  *
  * On Spark, leaves are partitions of the cached block RDD, each holding
  * one block, and one job runs them all; the root merges the leaf
  * summaries that arrive within an aggregation interval into one update.
  *
  * Root-received bytes (Fig. 5, bottom) are the Java-serialized size of
  * each merged update, one per partial, computed when first read
  * (`Partial.bytesThisUpdate`), off the query's clock. The bytes of Spark's
  * serialized task results, one per partition, are not what is counted.
  */
object ExecutionTree {

  /** Per-leaf summaries, one per partition. */
  private[engine] def leafSummaries[S: ClassTag](t: CachedTable, sk: Sketch[S], seed: Long): RDD[S] =
    new PartitionMap(t.blocks, LeafFold(sk, seed))

  /** Blocking execution: the final partial of `runProgressive`. */
  def run[S: ClassTag](t: CachedTable, sk: Sketch[S], seed: Long = 0L): S =
    runProgressive(t, sk, seed).finalValue

  /** Progressive execution: ALL leaves run in parallel (one Spark job);
    * as each leaf's summary arrives at the root it is queued, and the
    * root batches arrivals on a 0.1-second aggregation interval before
    * emitting a partial — the paper's straggler-tolerant design (§5.3:
    * "nodes periodically propagate partially merged results … aggregation
    * nodes wait for 0.1 seconds and aggregate all results that arrive
    * within this interval").
    *
    * Cancellation cancels the job, which drops not-yet-started
    * micropartitions; running ones are not interrupted, exactly as in the
    * paper ("we currently do not stop ongoing computations").
    */
  def runProgressive[S: ClassTag](
      t: CachedTable,
      sk: Sketch[S],
      seed: Long = 0L,
      aggregationIntervalMs: Long = 100L,
      cancel: Partial[S] => Boolean = (_: Partial[S]) => false
  ): ProgressiveResult[S] = {
    val summ  = leafSummaries(t, sk, seed)
    val sc    = summ.sparkContext
    val parts = summ.getNumPartitions
    if (parts == 0) return ProgressiveResult(Vector(Partial(sk.zero, 0, 0, 0.0, None)), cancelled = false)

    // Leaf results and, if the job fails, its error arrive on one queue,
    // so the root wakes for either at once.
    val queue = new LinkedBlockingQueue[Try[S]]()
    val start = System.nanoTime()
    val action = sc.submitJob[S, S, Unit](
      summ,
      LeafResult[S](),
      0 until parts,
      (_: Int, s: S) => { queue.put(Success(s)); () },
      ())
    action.onComplete {
      case Failure(e) => queue.put(Failure(e))
      case _          => ()
    }(ExecutionContext.parasitic)

    var acc       = sk.zero
    var done      = 0
    var cancelled = false
    var lastEmit  = start
    var pending   = sk.zero
    var pendingN  = 0
    val partials  = Vector.newBuilder[Partial[S]]

    def elapsedMs = (System.nanoTime() - start) / 1e6

    while (done < parts && !cancelled) {
      // Block until the next arrival; with arrivals pending, no later than
      // their aggregation deadline.
      var r =
        if (pendingN == 0) queue.take()
        else queue.poll(lastEmit + aggregationIntervalMs * 1000000L - System.nanoTime(), TimeUnit.NANOSECONDS)
      while (r != null) {
        pending = sk.merge(pending, r.get) // a job failure throws here
        pendingN += 1
        r = queue.poll()
      }
      val complete = done + pendingN == parts
      val interval = (System.nanoTime() - lastEmit) / 1e6 >= aggregationIntervalMs
      if (pendingN > 0 && (complete || interval)) {
        // The aggregation layer ships one merged update; the root merges
        // it into the running result and forwards a partial to the UI.
        acc = sk.merge(acc, pending)
        done += pendingN
        val p = Partial(acc, done, parts, elapsedMs, Some(pending))
        partials += p
        pending = sk.zero
        pendingN = 0
        lastEmit = System.nanoTime()
        if (!complete && cancel(p)) {
          cancelled = true
          action.cancel()
        }
      }
    }
    ProgressiveResult(partials.result(), cancelled)
  }
}

/** A leaf: summarize the partition's one block (none for an empty
  * partition); the one place a block gets its `LeafCtx`, seeded by the
  * partition index (`LocalWorker` uses it too).
  */
private final case class LeafFold[S](sk: Sketch[S], seed: Long) extends PartitionFn[ColumnarBlock, S] {
  def apply(pid: Int, it: Iterator[ColumnarBlock]): Iterator[S] = {
    val s = if (it.hasNext) sk.summarize(it.next(), LeafCtx(pid, seed)) else sk.zero
    require(!it.hasNext, s"partition $pid holds more than one block")
    Iterator.single(s)
  }
}

/** The job function of `runProgressive`: a leaf's one summary. */
private final case class LeafResult[S]() extends (Iterator[S] => S) with Serializable {
  def apply(it: Iterator[S]): S = it.next()
}
