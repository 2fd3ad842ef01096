package repro.core

import repro.storage.{ColumnarBlock, RowBatches, StringColumn}

/** HyperLogLog registers (Flajolet et al. [40]): 2^p byte registers,
  * merged by element-wise max — the canonical mergeable summary.
  */
final case class HllSummary(registers: Array[Byte], p: Int) extends Serializable {
  def m: Int = 1 << p

  /** Cardinality estimate with linear-counting small-range correction. */
  def estimate: Double = {
    val mm = m.toDouble
    val alpha = m match {
      case 16 => 0.673
      case 32 => 0.697
      case 64 => 0.709
      case _  => 0.7213 / (1.0 + 1.079 / mm)
    }
    var sum   = 0.0
    var zeros = 0
    var i     = 0
    while (i < m) {
      sum += math.pow(2.0, -registers(i).toDouble)
      if (registers(i) == 0) zeros += 1
      i += 1
    }
    val raw = alpha * mm * mm / sum
    if (raw <= 2.5 * mm && zeros > 0) mm * math.log(mm / zeros) else raw
  }
}

/** Distinct-count vizketch (App. B.3): standard error ~1.04/√m ≈ 1.6% at
  * p = 12. Values hash through SplitMix so numeric and string columns use
  * the same register stream.
  */
final case class HllSketch(col: String, p: Int = 12) extends Sketch[HllSummary] {
  require(p >= 4 && p <= 16, s"p out of range: $p")
  def name            = "distinct.hll"
  override def params = s"$col,p=$p"

  def zero = HllSummary(new Array[Byte](1 << p), p)

  /** Numeric columns hash each batch's values from `Column.doubles`. A
    * string column hashes each dictionary entry its members use once per
    * block (`ValueCounts`); registers keep a maximum, so adding a value once
    * or once per occurrence gives the same summary.
    */
  def summarize(block: ColumnarBlock, ctx: LeafCtx): HllSummary = {
    val regs = new Array[Byte](1 << p)
    block.column(col) match {
      case c: StringColumn =>
        ValueCounts(c, block.batches).iterator.foreach { case (v, _) => add(regs, SplitMix.hashString(v)) }
      case c =>
        val xs = new Array[Double](RowBatches.Capacity)
        val rb = block.batches
        while (rb.next()) {
          c.doubles(rb.rows, rb.size, xs)
          var j = 0
          while (j < rb.size) {
            val x = xs(j)
            if (!x.isNaN) add(regs, SplitMix.mix(java.lang.Double.doubleToLongBits(x), 0x9E1L))
            j += 1
          }
        }
    }
    HllSummary(regs, p)
  }

  private def add(regs: Array[Byte], h: Long): Unit = {
    val idx  = (h >>> (64 - p)).toInt
    val rest = h << p
    val rank = (if (rest == 0L) 64 - p else java.lang.Long.numberOfLeadingZeros(rest)) + 1
    if (rank > regs(idx)) regs(idx) = rank.toByte
  }

  def merge(a: HllSummary, b: HllSummary): HllSummary = {
    require(a.p == b.p, "HLL precision mismatch in merge")
    val regs = new Array[Byte](a.registers.length)
    var i = 0
    while (i < regs.length) {
      regs(i) = if (a.registers(i) >= b.registers(i)) a.registers(i) else b.registers(i)
      i += 1
    }
    HllSummary(regs, a.p)
  }
}
