package repro.storage

import scala.reflect.ClassTag
import org.apache.spark.{Partition, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import org.apache.spark.storage.StorageLevel

/** Serializable row predicate for filtering (§5.6 "selection"). A SAM
  * trait (not a bare Function2) so Spark can ship lambdas.
  */
trait RowPred extends Serializable { def apply(b: ColumnarBlock, i: Int): Boolean }

/** Serializable user-defined map producing a derived numeric column. */
trait RowFn extends Serializable { def apply(b: ColumnarBlock, i: Int): Double }

/** A table cached in columnar form across the cluster: an
  * `RDD[ColumnarBlock]` where each block is a micropartition (§5.3).
  * Derived tables (filter / derived column) share the physical column
  * arrays and differ only in membership / added columns (§5.6).
  *
  * All state here is *soft* (§5.7). A cached source table carries no
  * lineage back to the data it was read from (see
  * `ColumnStore.fromDataFrame`), so a leaf job ships only its vizketch and
  * a pointer to the cached blocks; the engine's redo log, not Spark
  * recompute, rebuilds a dropped table.
  *
  * `sourceBlocksId` is the RDD id of the cached blocks of the source this
  * table was filtered or derived from (its own blocks' for a source).
  */
final class CachedTable(
    val id: String,
    val blocks: RDD[ColumnarBlock],
    val columnNames: Seq[String],
    val sourceBlocksId: Int
) extends Serializable {

  def this(id: String, blocks: RDD[ColumnarBlock], columnNames: Seq[String]) =
    this(id, blocks, columnNames, blocks.id)

  /** The key of this table's results in the computation cache: its id and
    * its source's blocks. A source reloaded under the same id with other
    * data gets new blocks, so its cached ranges no longer apply; a table
    * filtered again from the same source finds them.
    */
  def cacheKey: String = s"$id@$sourceBlocksId"

  /** Member row count (filtered size). Computed once, then reused for
    * sampling-rate calculations. One blocking job: only a blocking job
    * cuts a local-checkpointed source's lineage (see `warm`).
    */
  lazy val numRows: Long = blocks.sparkContext.runJob(blocks, CountRows, 0 until numLeaves).sum

  def numLeaves: Int = blocks.getNumPartitions

  /** New table selecting rows where `pred` holds; shares column data. */
  def filter(label: String, pred: RowPred): CachedTable =
    new CachedTable(s"$id|filter:$label",
      new PartitionMap(blocks, FilterBlocks(pred)).persist(StorageLevel.MEMORY_ONLY),
      columnNames, sourceBlocksId)

  /** New table with a derived double column (§5.6 user-defined maps). */
  def derive(colName: String, fn: RowFn): CachedTable =
    new CachedTable(s"$id|derive:$colName",
      new PartitionMap(blocks, DeriveBlocks(colName, fn)).persist(StorageLevel.MEMORY_ONLY),
      columnNames :+ colName, sourceBlocksId)

  /** Force materialization of the cache (the paper's warm-data setting). */
  def warm(): CachedTable = { numRows; this }

  /** Release the cached blocks — soft state is disposable (§5.7).
    *
    * Spark never recomputes a cached source's blocks (they have no
    * lineage): after `drop` a sketch on a source table fails with a Spark
    * error naming the missing checkpoint block. A table filtered or
    * derived from it keeps answering from its own cached blocks and fails
    * the same way once one of them must be recomputed; a dropped filtered
    * or derived table is recomputed from its parent while the parent's
    * blocks last. Only the redo log rebuilds a table: `Engine.table`
    * replays the tables the engine dropped, and `Engine.run` and
    * `Engine.runProgressive` replay a table whose blocks were lost and
    * run again.
    */
  def drop(): Unit = blocks.unpersist(blocking = true)
}

/** A partition function shipped to tasks as a named class: its fields are
  * all a task deserializes.
  */
trait PartitionFn[T, U] extends Serializable {
  def apply(pid: Int, it: Iterator[T]): Iterator[U]
}

/** The RDD whose partition `pid` is `f(pid, prev's partition pid)`: what
  * `mapPartitionsWithIndex` builds, without what Spark adds to each such
  * call on the driver (parsing the caller's bytecode to clean the closure,
  * a trial serialization, a JSON round trip of the operation scope).
  * Because `f` is not cleaned, a non-serializable `f` fails the job when
  * its tasks are serialized, not at this call. Like Spark's own
  * `MapPartitionsRDD`, it keeps `prev` as a field until checkpointed.
  */
final class PartitionMap[T: ClassTag, U: ClassTag](private var prev: RDD[T], f: PartitionFn[T, U])
    extends RDD[U](prev) {
  override protected def getPartitions: Array[Partition] = firstParent[T].partitions
  override def compute(split: Partition, context: TaskContext): Iterator[U] =
    f(split.index, firstParent[T].iterator(split, context))
  override protected def clearDependencies(): Unit = { super.clearDependencies(); prev = null }
}

/** The job function of `CachedTable.numRows`: a partition's member rows. */
private object CountRows extends ((TaskContext, Iterator[ColumnarBlock]) => Long) with Serializable {
  def apply(ctx: TaskContext, it: Iterator[ColumnarBlock]): Long = it.foldLeft(0L)(_ + _.rowCount)
}

private final case class FilterBlocks(pred: RowPred) extends PartitionFn[ColumnarBlock, ColumnarBlock] {
  def apply(pid: Int, it: Iterator[ColumnarBlock]): Iterator[ColumnarBlock] =
    it.map(b => b.filtered(i => pred(b, i)))
}

private final case class DeriveBlocks(name: String, fn: RowFn) extends PartitionFn[ColumnarBlock, ColumnarBlock] {
  def apply(pid: Int, it: Iterator[ColumnarBlock]): Iterator[ColumnarBlock] =
    it.map(b => b.withDerived(name, (blk, i) => fn(blk, i)))
}

object ColumnStore {

  /** Rows per micropartition. The paper uses 10–20M rows per worker
    * micropartition at cluster scale; scaled to one node we default to
    * 256k so a 16-core machine gets well-fed execution trees.
    */
  val DefaultBlockRows = 262144

  /** Ingest a DataFrame into the columnar cache. No repartitioning, no
    * indexes — Hillview "reads data repositories without pre-processing"
    * (§5.4); we convert each Spark partition's rows into blocks as-is.
    *
    * With `cache`, the block RDD is local-checkpointed (memory-and-disk
    * level): once a blocking job (`warm()`) has materialized it, its
    * lineage — the DataFrame's SQL plan and codegen stages — is cut, and
    * every later task ships a pointer to the cached blocks instead. The
    * asynchronous job `ExecutionTree` runs does not cut it, so warm a
    * table before running sketches on it. Lost
    * blocks are not recomputed; the redo log rebuilds the table (§5.7).
    * Without `cache` the lineage stays, and every job re-reads the source.
    */
  def fromDataFrame(id: String, df: DataFrame, blockRows: Int = DefaultBlockRows,
                    cache: Boolean = true): CachedTable = {
    val schema = df.schema
    val rdd = df.rdd.mapPartitions(rows => blockify(rows, schema, blockRows))
    new CachedTable(id, if (cache) rdd.localCheckpoint() else rdd, schema.fieldNames.toSeq)
  }

  /** Cold-read path (paper Fig. 6): blocks built straight from a columnar
    * file on disk, not cached, so every query pays the read.
    */
  def fromParquet(id: String, spark: SparkSession, path: String, cols: Seq[String],
                  blockRows: Int = DefaultBlockRows): CachedTable = {
    val df     = spark.read.parquet(path).select(cols.map(org.apache.spark.sql.functions.col): _*)
    val schema = df.schema
    new CachedTable(id, df.rdd.mapPartitions(rows => blockify(rows, schema, blockRows)),
      schema.fieldNames.toSeq)
  }

  private def blockify(rows: Iterator[Row], schema: StructType, blockRows: Int): Iterator[ColumnarBlock] =
    rows.grouped(blockRows).map(chunk => buildBlock(chunk, schema))

  /** Convert a chunk of Spark rows into primitive column arrays, choosing
    * the column representation and each cell's getter by Catalyst type:
    * dictionary-encoded strings, integers and epoch-day dates packed to
    * the narrowest width their range in the block needs (`PackedInts`;
    * dictionary codes likewise), and doubles scaled to packed integers
    * where the block's values are decimals of a narrow span, as they are
    * otherwise (`PackedDoubles`).
    */
  def buildBlock(chunk: Seq[Row], schema: StructType): ColumnarBlock = {
    val n = chunk.size
    // Integers, dates, codes and scaled doubles are packed from `wide`.
    val wide = new Array[Long](n)
    val cols = schema.fields.zipWithIndex.map { case (f, fi) =>
      val t  = f.dataType
      val it = chunk.iterator
      var i  = 0
      t match {
        case DoubleType | FloatType | _: DecimalType =>
          val a = new Array[Double](n)
          while (it.hasNext) {
            val r = it.next()
            a(i) = if (r.isNullAt(fi)) Double.NaN else t match {
              case DoubleType => r.getDouble(fi)
              case FloatType  => r.getFloat(fi).toDouble
              case _          => r.getDecimal(fi).doubleValue
            }
            i += 1
          }
          f.name -> DoubleColumn(PackedDoubles(a, wide))

        case StringType =>
          val dict = new java.util.LinkedHashMap[String, Integer]()
          while (it.hasNext) {
            val r = it.next()
            wide(i) =
              if (r.isNullAt(fi)) -1L
              else {
                val s = r.getString(fi)
                var c = dict.get(s)
                if (c == null) { c = dict.size; dict.put(s, c) }
                c.longValue
              }
            i += 1
          }
          val d = new Array[String](dict.size)
          dict.forEach((s, c) => d(c) = s)
          f.name -> StringColumn(d, PackedInts.pack(wide, n, null))

        case ByteType | ShortType | IntegerType | LongType | BooleanType | DateType =>
          var nulls: java.util.BitSet = null
          while (it.hasNext) {
            val r = it.next()
            if (r.isNullAt(fi)) {
              if (nulls == null) nulls = new java.util.BitSet(n)
              nulls.set(i)
            } else wide(i) = t match {
              case IntegerType => r.getInt(fi).toLong
              case LongType    => r.getLong(fi)
              case ShortType   => r.getShort(fi).toLong
              case ByteType    => r.getByte(fi).toLong
              case BooleanType => if (r.getBoolean(fi)) 1L else 0L
              case _           => r.getDate(fi).toLocalDate.toEpochDay
            }
            i += 1
          }
          val values = PackedInts.pack(wide, n, nulls)
          f.name -> (if (t == DateType) DateColumn(values, nulls) else LongColumn(values, nulls))

        case other =>
          throw new IllegalArgumentException(s"unsupported column type for ${f.name}: $other")
      }
    }
    ColumnarBlock(cols.toMap, n, MembershipSet.full(n))
  }
}
