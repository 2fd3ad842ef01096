package repro

import repro.core._
import repro.storage._

/** Local (non-Spark) test fixtures: hand-built columnar blocks and
  * brute-force reference computations for sketch correctness checks.
  */
object TestData {

  def doubleBlock(values: Double*): ColumnarBlock =
    ColumnarBlock.ofDoubles("x", values.toArray)

  def doubleBlockNamed(name: String, values: Array[Double]): ColumnarBlock =
    ColumnarBlock.ofDoubles(name, values)

  def stringBlock(name: String, values: Seq[String]): ColumnarBlock = {
    val dict  = values.filter(_ != null).distinct.toArray
    val index = dict.zipWithIndex.toMap
    val codes = values.map(v => if (v == null) -1 else index(v)).toArray
    ColumnarBlock.of(values.length, name -> StringColumn(dict, codes))
  }

  def twoColBlock(xs: Array[Double], ys: Array[Double]): ColumnarBlock =
    ColumnarBlock.of(xs.length, "x" -> DoubleColumn(xs), "y" -> DoubleColumn(ys))

  /** Deterministic block of `n` rows over small domains (so sort keys tie)
    * with missing values in every column: "x" doubles, "s" strings,
    * "l" longs and "d" dates.
    */
  def mixedBlock(n: Int, seed: Long): ColumnarBlock = {
    val rng   = new SplitMix(seed)
    val dict  = Array("AA", "B6", "DL", "UA", "WN")
    val xs    = Array.fill(n)(if (rng.nextInt(10) == 0) Double.NaN else rng.nextInt(20) * 0.5)
    val codes = Array.fill(n)(if (rng.nextInt(10) == 0) -1 else rng.nextInt(dict.length))
    val ls    = Array.fill(n)(rng.nextInt(7).toLong - 3)
    val days  = Array.fill(n)(18000 + rng.nextInt(30))
    val lNull = new java.util.BitSet(n)
    val dNull = new java.util.BitSet(n)
    (0 until n).foreach { i =>
      if (rng.nextInt(10) == 0) lNull.set(i)
      if (rng.nextInt(10) == 0) dNull.set(i)
    }
    ColumnarBlock.of(n, "x" -> DoubleColumn(xs), "s" -> StringColumn(dict, codes),
      "l" -> LongColumn(ls, lNull), "d" -> DateColumn(days, dNull))
  }

  /** Deterministic pseudo-random doubles. */
  def randomDoubles(n: Int, seed: Long = 1, lo: Double = 0, hi: Double = 100): Array[Double] = {
    val rng = new SplitMix(seed)
    Array.fill(n)(lo + rng.nextDouble() * (hi - lo))
  }

  /** Deterministic zipf-ish strings over `keys` distinct values. */
  def zipfStrings(n: Int, keys: Int, seed: Long = 2): Seq[String] = {
    val rng = new SplitMix(seed)
    Seq.fill(n) {
      val r = rng.nextDouble()
      val k = math.min(keys - 1, (math.pow(r, 2.5) * keys).toInt)
      s"key$k"
    }
  }

  /** Split an array of values into `parts` contiguous blocks. */
  def splitBlocks(values: Array[Double], parts: Int): IndexedSeq[ColumnarBlock] = {
    val size = math.max(1, (values.length + parts - 1) / parts)
    values.grouped(size).map(a => ColumnarBlock.ofDoubles("x", a)).toIndexedSeq
  }

  /** Every row id a cursor yields, batch by batch: the one way tests read a
    * block's or a membership set's rows.
    */
  def drain(rb: RowBatches): Vector[Int] = {
    val out = Vector.newBuilder[Int]
    while (rb.next()) {
      assert(rb.size > 0 && rb.size <= RowBatches.Capacity, s"batch of ${rb.size} rows")
      (0 until rb.size).foreach(k => out += rb.rows(k))
    }
    out.result()
  }

  /** Run summarize over blocks and merge — a tiny local execution tree. */
  def sketchAll[S](sk: Sketch[S], blocks: Seq[ColumnarBlock], seed: Long = 0): S =
    blocks.zipWithIndex.foldLeft(sk.zero) { case (acc, (b, i)) =>
      sk.merge(acc, sk.summarize(b, LeafCtx(i, seed)))
    }

  /** Brute-force histogram for reference. */
  def bruteHistogram(values: Array[Double], b: NumericBuckets): Array[Long] = {
    val counts = new Array[Long](b.count)
    values.foreach { v => val i = b.indexOf(v); if (i >= 0) counts(i) += 1 }
    counts
  }
}
