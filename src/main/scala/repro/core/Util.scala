package repro.core

import java.io.{ByteArrayOutputStream, ObjectOutputStream, OutputStream}

/** SplitMix64 — a tiny, fast, deterministic PRNG.
  *
  * Vizketches must be deterministic in (seed, blockId) so that redo-log
  * replay after a failure reproduces bit-identical results (§5.8 of the
  * paper: "the log includes the seed used for randomization").
  * As a `RandomGenerator` it also inherits Java's ziggurat samplers, e.g.
  * `nextExponential()`, which sampled scans use for their geometric skips.
  */
final class SplitMix(seed: Long) extends java.util.random.RandomGenerator with Serializable {
  private var state: Long = seed

  def nextLong(): Long = {
    state += 0x9E3779B97F4A7C15L
    var z = state
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Uniform double in [0, 1). */
  override def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16

  /** Uniform int in [0, n). */
  override def nextInt(n: Int): Int = {
    require(n > 0, s"nextInt bound must be positive: $n")
    (((nextLong() >>> 33) * n) >>> 31).toInt
  }
}

object SplitMix {
  /** Stateless mix of two longs — used to derive per-leaf seeds. */
  def mix(a: Long, b: Long): Long = {
    var z = a ^ (b * 0x9E3779B97F4A7C15L)
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Stable 64-bit hash of a string (FNV-1a widened through mix). */
  def hashString(s: String): Long = {
    var h = 0xcbf29ce484222325L
    var i = 0
    while (i < s.length) { h ^= s.charAt(i); h *= 0x100000001b3L; i += 1 }
    mix(h, 0x5bf03635L)
  }
}

/** The merge step of the next-items and bottom-k sketches. */
private[core] object SortedRuns {
  /** The first `k` of the union of two runs, each sorted by `cmp` with
    * distinct elements; an element of `a` equal to one of `b` is combined
    * with it.
    */
  def union[T](a: Vector[T], b: Vector[T], k: Int)(cmp: (T, T) => Int, combine: (T, T) => T): Vector[T] = {
    val out   = Vector.newBuilder[T]
    var i     = 0
    var j     = 0
    var taken = 0
    while (taken < k && (i < a.length || j < b.length)) {
      val c = if (i == a.length) 1 else if (j == b.length) -1 else cmp(a(i), b(j))
      if (c < 0) { out += a(i); i += 1 }
      else if (c > 0) { out += b(j); j += 1 }
      else { out += combine(a(i), b(j)); i += 1; j += 1 }
      taken += 1
    }
    out.result()
  }
}

/** Java-serialized size of a summary — models the bytes an aggregation
  * node sends to the root (the paper's Fig. 5 bottom metric).
  */
object Serde {
  private final class CountingStream extends OutputStream {
    var count: Long = 0L
    override def write(b: Int): Unit = count += 1
    override def write(b: Array[Byte], off: Int, len: Int): Unit = count += len
  }

  def sizeOf(obj: Any): Long = {
    val cs  = new CountingStream
    val oos = new ObjectOutputStream(cs)
    oos.writeObject(obj.asInstanceOf[AnyRef]); oos.flush(); oos.close()
    cs.count
  }

  def toBytes(obj: Any): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(obj.asInstanceOf[AnyRef]); oos.flush(); oos.close()
    bos.toByteArray
  }
}
