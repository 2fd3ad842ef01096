package perfbench

/** Small numeric and JSON helpers. */
object Stats {

  /** Percentile `p` by the Harrell–Davis estimator: a Beta-weighted mean of
    * all order statistics. A run mixes a few action types with distinct
    * latencies, and a rank-based percentile jumps between them as the
    * sample changes; this one moves smoothly.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    if (xs.isEmpty) return 0.0
    val s = xs.sorted.toArray
    val n = s.length
    if (n == 1) return s(0)
    val q = p / 100.0
    val a = q * (n + 1)
    val b = (1 - q) * (n + 1)
    var prev = 0.0
    var sum  = 0.0
    var i    = 1
    while (i <= n) {
      val cur = org.apache.commons.math3.special.Beta.regularizedBeta(i.toDouble / n, a, b)
      sum += (cur - prev) * s(i - 1)
      prev = cur
      i += 1
    }
    sum
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  def ms(fromNs: Long, toNs: Long): Double = (toNs - fromNs) / 1e6

  /** Minimal JSON rendering of maps, sequences, strings and numbers. */
  def json(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float             => json(f.toDouble)
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.map(json).mkString("[", ", ", "]")
    case o                    => quote(o.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case '\n'         => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    (b += '"').toString
  }
}
