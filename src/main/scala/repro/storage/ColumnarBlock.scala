package repro.storage

import repro.core.SplitMix

/** One micropartition of a table: shared column arrays plus the membership
  * set of the (possibly filtered) table that owns this view (paper §5.3:
  * data within a worker is divided into micropartitions, each assigned to
  * a leaf of the execution tree; §5.6: filtered tables share column data).
  */
final case class ColumnarBlock(
    columns: Map[String, Column],
    numRows: Int,
    membership: MembershipSet
) {

  /** The columns by name, for the lookup a `RowPred` or `RowFn` makes on
    * every row: one hash probe (a `String` caches its hash) that allocates
    * nothing. Built on first use, so a copied or deserialized block builds
    * its own.
    */
  @transient private[this] lazy val index: java.util.HashMap[String, Column] = {
    val m = new java.util.HashMap[String, Column](columns.size * 2)
    columns.foreach { case (n, c) => m.put(n, c) }
    m
  }

  def column(name: String): Column = {
    val c = index.get(name)
    if (c != null) c
    else throw new NoSuchElementException(s"column '$name' not cached; have ${columns.keys.mkString(", ")}")
  }

  /** Member row count (i.e. the filtered size, not the physical size). */
  def rowCount: Int = membership.size

  /** Cursor over member row ids, a batch at a time (see `RowBatches`). */
  def batches: RowBatches = membership.batches

  /** Cursor over a Bernoulli(rate) sample of member row ids; deterministic
    * in rng, every member when rate ≥ 1.
    */
  def batches(rate: Double, rng: SplitMix): RowBatches = membership.batches(rate, rng)

  /** View of this block filtered by `pred` (evaluated on current members only). */
  def filtered(pred: Int => Boolean): ColumnarBlock =
    copy(membership = MembershipSet.from(membership, pred))

  /** Block with an extra derived double column (paper §5.6 user-defined maps). */
  def withDerived(name: String, fn: (ColumnarBlock, Int) => Double): ColumnarBlock = {
    val values = new Array[Double](numRows)
    java.util.Arrays.fill(values, Double.NaN)
    val rb = batches
    while (rb.next()) (0 until rb.size).foreach { k => val i = rb.rows(k); values(i) = fn(this, i) }
    copy(columns = columns + (name -> DoubleColumn(values)))
  }
}

object ColumnarBlock {
  /** Convenience constructor for a fully-member block. */
  def of(numRows: Int, cols: (String, Column)*): ColumnarBlock = {
    cols.foreach { case (n, c) =>
      require(c.size == numRows, s"column $n has ${c.size} rows, expected $numRows")
    }
    ColumnarBlock(cols.toMap, numRows, MembershipSet.full(numRows))
  }

  /** Build a single-double-column block from raw values (microbench path). */
  def ofDoubles(name: String, values: Array[Double]): ColumnarBlock =
    of(values.length, name -> DoubleColumn(values))
}
