package repro.storage

import scala.reflect.ClassTag
import org.apache.spark.{Partition, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession, functions}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import org.apache.spark.storage.StorageLevel

/** Serializable row predicate for filtering (§5.6 "selection"). A SAM
  * trait (not a bare Function2) so Spark can ship lambdas.
  */
trait RowPred extends Serializable { def apply(b: ColumnarBlock, i: Int): Boolean }

/** Serializable user-defined map producing a derived numeric column. */
trait RowFn extends Serializable { def apply(b: ColumnarBlock, i: Int): Double }

/** A table cached in columnar form across the cluster: an
  * `RDD[ColumnarBlock]` with at most one block per partition, so a
  * partition is a micropartition (§5.3) and a leaf of the execution tree.
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

/** The partition function of `ColumnStore.fromDataFrame`: a partition's
  * rows as its one block; an empty partition has none.
  */
private final case class BuildBlock(schema: StructType) extends PartitionFn[InternalRow, ColumnarBlock] {
  def apply(pid: Int, rows: Iterator[InternalRow]): Iterator[ColumnarBlock] =
    if (rows.hasNext) Iterator.single(ColumnStore.buildBlock(rows, schema)) else Iterator.empty
}

object ColumnStore {

  /** Ingest a DataFrame into the columnar cache. No repartitioning, no
    * indexes — Hillview "reads data repositories without pre-processing"
    * (§5.4): each Spark partition becomes one block, so a partition is a
    * micropartition and a leaf of the execution tree (§5.3). Its rows are
    * read as Catalyst rows straight from the query plan
    * (`queryExecution.toRdd`), never converted to `Row` objects.
    *
    * With `cache`, the block RDD is local-checkpointed (memory-and-disk
    * level): once a blocking job (`warm()`) has materialized it, its
    * lineage — the DataFrame's SQL plan and codegen stages — is cut, and
    * every later task ships a pointer to the cached blocks instead. The
    * asynchronous job `ExecutionTree` runs does not cut it, so warm a
    * table before running sketches on it. Lost blocks are not recomputed;
    * the redo log rebuilds the table (§5.7).
    * Without `cache` the lineage stays, and every job re-reads the source.
    */
  def fromDataFrame(id: String, df: DataFrame, cache: Boolean = true): CachedTable = {
    val rdd = new PartitionMap(df.queryExecution.toRdd, BuildBlock(df.schema))
    new CachedTable(id, if (cache) rdd.localCheckpoint() else rdd, df.schema.fieldNames.toSeq)
  }

  /** Cold-read path (paper Fig. 6): blocks built straight from a columnar
    * file on disk, not cached, so every query pays the read.
    */
  def fromParquet(id: String, spark: SparkSession, path: String, cols: Seq[String]): CachedTable =
    fromDataFrame(id, spark.read.parquet(path).select(cols.map(functions.col): _*), cache = false)

  /** One block from Catalyst rows in one row-major pass: each column
    * appends its cells to a primitive buffer (`ColumnBuilder`), then packs
    * them as `PackedInts` and `PackedDoubles` choose for the block.
    */
  def buildBlock(rows: Iterator[InternalRow], schema: StructType): ColumnarBlock = {
    val builders = schema.fields.zipWithIndex.map { case (f, ord) => builder(f, ord) }
    var n = 0
    while (rows.hasNext) {
      val r = rows.next()
      var c = 0
      while (c < builders.length) { builders(c).add(r, n); c += 1 }
      n += 1
    }
    val wide = new Array[Long](n) // every column packs through it
    ColumnarBlock(schema.fieldNames.zip(builders.map(_.result(n, wide))).toMap, n, MembershipSet.full(n))
  }

  private def builder(f: StructField, ord: Int): ColumnBuilder = f.dataType match {
    case t @ (DoubleType | FloatType | _: DecimalType)                      => new DoubleCells(ord, t)
    case t @ (ByteType | ShortType | IntegerType | BooleanType | DateType) => new IntCells(ord, t)
    case LongType                                                           => new LongCells(ord)
    case StringType                                                         => new StringCells(ord)
    case other => throw new IllegalArgumentException(s"unsupported column type for ${f.name}: $other")
  }
}

/** One column of a block being built: `add` appends a row's cell, read
  * with its Catalyst type's getter while the row is current (Spark reuses
  * rows and their string buffers), to a primitive buffer that doubles as
  * it fills; `result` encodes the first `n` cells, packing through `wide`.
  * A packed column keeps its missing cells in a bitset sized for the block.
  */
private sealed abstract class ColumnBuilder {
  protected final val InitialRows = 1024
  private[this] var missingSet: java.util.BitSet = null
  protected final def missing(i: Int): Unit = {
    if (missingSet == null) missingSet = new java.util.BitSet()
    missingSet.set(i)
  }
  protected final def nulls(n: Int): java.util.BitSet =
    if (missingSet == null) null else { val b = new java.util.BitSet(n); b.or(missingSet); b }

  def add(r: InternalRow, i: Int): Unit
  def result(n: Int, wide: Array[Long]): Column
}

/** Doubles, floats and decimals (as `BigDecimal.doubleValue` converts
  * them); a missing cell is NaN.
  */
private final class DoubleCells(ord: Int, t: DataType) extends ColumnBuilder {
  private[this] var a = new Array[Double](InitialRows)
  def add(r: InternalRow, i: Int): Unit = {
    if (i == a.length) a = java.util.Arrays.copyOf(a, 2 * i)
    a(i) = if (r.isNullAt(ord)) Double.NaN else t match {
      case DoubleType     => r.getDouble(ord)
      case FloatType      => r.getFloat(ord).toDouble
      case d: DecimalType => r.getDecimal(ord, d.precision, d.scale).toJavaBigDecimal.doubleValue
    }
  }
  def result(n: Int, wide: Array[Long]): Column = DoubleColumn(PackedDoubles(java.util.Arrays.copyOf(a, n), wide))
}

private final class LongCells(ord: Int) extends ColumnBuilder {
  private[this] var a = new Array[Long](InitialRows)
  def add(r: InternalRow, i: Int): Unit = {
    if (i == a.length) a = java.util.Arrays.copyOf(a, 2 * i)
    if (r.isNullAt(ord)) missing(i) else a(i) = r.getLong(ord)
  }
  def result(n: Int, wide: Array[Long]): Column = { val m = nulls(n); LongColumn(PackedInts.pack(a, n, m), m) }
}

/** Ints, shorts, bytes, booleans (1 or 0) and dates (Catalyst's epoch days). */
private final class IntCells(ord: Int, t: DataType) extends ColumnBuilder {
  private[this] var a = new Array[Int](InitialRows)
  def add(r: InternalRow, i: Int): Unit = {
    if (i == a.length) a = java.util.Arrays.copyOf(a, 2 * i)
    if (r.isNullAt(ord)) missing(i) else a(i) = t match {
      case IntegerType | DateType => r.getInt(ord)
      case ShortType              => r.getShort(ord)
      case ByteType               => r.getByte(ord)
      case _                      => if (r.getBoolean(ord)) 1 else 0
    }
  }
  def result(n: Int, wide: Array[Long]): Column = {
    (0 until n).foreach(i => wide(i) = a(i))
    val m = nulls(n)
    val v = PackedInts.pack(wide, n, m)
    if (t == DateType) DateColumn(v, m) else LongColumn(v, m)
  }
}

/** Strings by a first-seen dictionary, copying a string only when it
  * becomes a new entry; a missing cell is code -1.
  */
private final class StringCells(ord: Int) extends ColumnBuilder {
  private[this] var codes = new Array[Int](InitialRows)
  private[this] val dict  = new java.util.HashMap[UTF8String, Integer]()
  def add(r: InternalRow, i: Int): Unit = {
    if (i == codes.length) codes = java.util.Arrays.copyOf(codes, 2 * i)
    codes(i) = if (r.isNullAt(ord)) -1 else {
      val c = dict.get(r.getUTF8String(ord))
      if (c != null) c.intValue else { val k = dict.size; dict.put(r.getUTF8String(ord).copy(), k); k }
    }
  }
  def result(n: Int, wide: Array[Long]): Column = {
    (0 until n).foreach(i => wide(i) = codes(i))
    val d = new Array[String](dict.size)
    dict.forEach((s, c) => d(c) = s.toString)
    StringColumn(d, PackedInts.pack(wide, n, null))
  }
}
