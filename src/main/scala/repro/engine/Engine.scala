package repro.engine

import org.apache.spark.SparkException
import org.apache.spark.sql.SparkSession
import repro.core.Sketch
import repro.storage.{CachedTable, RowFn, RowPred}
import scala.collection.concurrent.TrieMap
import scala.collection.mutable
import scala.reflect.ClassTag

/** Operations recorded in the root's redo log (§5.7/§5.8). Tables are
  * identified by deterministic ids; randomized sketches record their seed
  * so replay is bit-identical. Builders / predicates / map functions are
  * referenced by registered id, not by closure, so a restarted root can
  * re-resolve them.
  */
sealed trait Op extends Serializable { def tableId: String }
final case class LoadOp(tableId: String, builderId: String, params: Map[String, String]) extends Op
final case class FilterOp(tableId: String, parentId: String, label: String, predId: String, params: Map[String, String]) extends Op
final case class DeriveOp(tableId: String, parentId: String, col: String, fnId: String, params: Map[String, String]) extends Op

/** The redo log: the only persistent structure Hillview maintains (§5.7).
  * Here it is an in-memory buffer with save/load to a file via Java
  * serialization, enough to exercise restart-and-replay.
  */
final class RedoLog {
  private val ops = mutable.ArrayBuffer.empty[Op]

  /** Append `op` unless an op with its table id is already logged;
    * returns the op the log holds for that id.
    */
  def append(op: Op): Op = synchronized { find(op.tableId).getOrElse { ops += op; op } }

  def entries: Vector[Op]               = synchronized { ops.toVector }
  def find(tableId: String): Option[Op] = synchronized { ops.find(_.tableId == tableId) }

  def save(path: String): Unit = {
    val oos = new java.io.ObjectOutputStream(new java.io.FileOutputStream(path))
    try oos.writeObject(entries) finally oos.close()
  }

  def load(path: String): Unit = {
    val ois = new java.io.ObjectInputStream(new java.io.FileInputStream(path))
    try synchronized { ops.clear(); ops ++= ois.readObject().asInstanceOf[Vector[Op]] }
    finally ois.close()
  }
}

/** The root node's view of the system: a registry of soft-state tables, a
  * redo log, and registries of named table builders,
  * predicates, and map functions (so log replay can reconstruct any
  * table — §5.7: "in-memory data is reconstructed by reloading the
  * original snapshot ... tables obtained from filtering can be
  * regenerated by re-executing the operation that created them").
  */
final class Engine(val spark: SparkSession) {
  val log = new RedoLog

  private val builders   = TrieMap.empty[String, Map[String, String] => CachedTable]
  private val predicates = TrieMap.empty[String, Map[String, String] => RowPred]
  private val mapFns     = TrieMap.empty[String, Map[String, String] => RowFn]
  private val registry   = TrieMap.empty[String, CachedTable] // soft state

  def registerBuilder(id: String)(b: Map[String, String] => CachedTable): Unit = builders.put(id, b)
  def registerPredicate(id: String)(p: Map[String, String] => RowPred): Unit   = predicates.put(id, p)
  def registerMapFn(id: String)(f: Map[String, String] => RowFn): Unit         = mapFns.put(id, f)

  /** Load a source table (logged). */
  def load(tableId: String, builderId: String, params: Map[String, String] = Map.empty): CachedTable =
    logged(LoadOp(tableId, builderId, params))

  /** Filter an existing table (logged). */
  def filter(parent: CachedTable, label: String, predId: String,
             params: Map[String, String] = Map.empty): CachedTable =
    logged(FilterOp(s"${parent.id}|filter:$label", parent.id, label, predId, params))

  /** Derive a column on an existing table (logged). */
  def derive(parent: CachedTable, col: String, fnId: String,
             params: Map[String, String] = Map.empty): CachedTable =
    logged(DeriveOp(s"${parent.id}|derive:$col", parent.id, col, fnId, params))

  /** Log `op` and return its table. A table id names one op: repeating
    * the op returns the table already logged (replayed if its soft state
    * was dropped) without a second entry, and a different op under a
    * logged id is rejected, since replay would rebuild the first one.
    */
  private def logged(op: Op): CachedTable = {
    val prior = log.append(op)
    require(prior == op, s"table ${op.tableId} is already logged as $prior, not $op")
    table(op.tableId)
  }

  /** Fetch a table; if its soft state was dropped, lazily replay the log
    * (recursively rebuilding parents — §5.7's recursion that "ends when
    * data is read from disk").
    */
  def table(tableId: String): CachedTable =
    registry.getOrElse(tableId, {
      val op = log.find(tableId).getOrElse(
        throw new IllegalStateException(s"table $tableId not in redo log — cannot recover"))
      materialize(op)
    })

  /** Run `sk` over table `tableId` to the last partial of `runProgressive`. */
  def run[S: ClassTag](tableId: String, sk: Sketch[S], seed: Long = 0L): S =
    runProgressive(tableId, sk, seed).finalValue

  /** Run `sk` over table `tableId` with partial results (see
    * `ExecutionTree.runProgressive`). A cached source keeps no lineage
    * (see `ColumnStore.fromDataFrame`), so when its blocks are gone (an
    * executor died, or they were unpersisted behind the engine's back)
    * Spark cannot recompute them and the job fails naming the missing
    * checkpoint block. The root then treats the source as a restarted
    * worker's (§5.8): it forgets the source and every table made from it,
    * replays them from the redo log, and runs the sketch once more.
    */
  def runProgressive[S: ClassTag](
      tableId: String,
      sk: Sketch[S],
      seed: Long = 0L,
      aggregationIntervalMs: Long = 100L,
      cancel: Partial[S] => Boolean = (_: Partial[S]) => false
  ): ProgressiveResult[S] = {
    def attempt() = ExecutionTree.runProgressive(table(tableId), sk, seed, aggregationIntervalMs, cancel)
    try attempt()
    catch {
      case e: SparkException if lostCheckpoint(e) =>
        val source = sourceOf(tableId)
        registry.keys.filter(sourceOf(_) == source).foreach(id => registry.remove(id).foreach(_.drop()))
        attempt()
    }
  }

  private def lostCheckpoint(e: Throwable): Boolean =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null)
      .exists(x => String.valueOf(x.getMessage).contains("CHECKPOINT_RDD_BLOCK_ID_NOT_FOUND"))

  /** The id of the load at the root of `tableId`'s chain in the log. */
  private def sourceOf(tableId: String): String = log.find(tableId) match {
    case Some(FilterOp(_, parentId, _, _, _)) => sourceOf(parentId)
    case Some(DeriveOp(_, parentId, _, _, _)) => sourceOf(parentId)
    case _                                    => tableId
  }

  /** Rebuild `op`'s table. A filter or derive of the table registered as
    * its parent already carries `op`'s table id.
    */
  private def materialize(op: Op): CachedTable = {
    val t = op match {
      case LoadOp(id, builderId, params) =>
        val b = builders.getOrElse(builderId,
          throw new IllegalStateException(s"builder $builderId not registered"))
        val built = b(params)
        // Warmed here: only a blocking job cuts a cached source's lineage.
        new CachedTable(id, built.blocks, built.columnNames).warm()
      case FilterOp(_, parentId, label, predId, params) =>
        val p = predicates.getOrElse(predId,
          throw new IllegalStateException(s"predicate $predId not registered"))
        table(parentId).filter(label, p(params))
      case DeriveOp(_, parentId, col, fnId, params) =>
        val f = mapFns.getOrElse(fnId,
          throw new IllegalStateException(s"map function $fnId not registered"))
        table(parentId).derive(col, f(params))
    }
    registry.put(op.tableId, t)
    t
  }

  /** Simulate a worker crash / memory reclamation: drop all soft state
    * (§5.8: "worker nodes are stateless ... restarting after a failure is
    * equivalent to deleting all cached datasets").
    */
  def dropAllSoftState(): Unit = {
    registry.values.foreach(_.drop())
    registry.clear()
  }

  def registeredTables: Set[String] = registry.keySet.toSet
}
