package perfbench

import repro.core.{HistogramSummary, KeyCell, NullCell, NumCell, RowKey, StrCell}

/** Answer checks. Exact vizketches must equal the reference; sampled ones
  * must fall within a binomial envelope of six standard deviations per
  * bucket, the same per-bucket form as the repository's Theorem-3 test
  * (which allows five).
  */
object Checks {
  type Problem = Option[String]

  val Sigmas = 6.0

  def all(ps: Problem*): Problem = ps.collectFirst { case Some(p) => p }

  def expect(ok: Boolean, msg: => String): Problem = if (ok) None else Some(msg)

  /** Bernoulli(rate) estimate `got / rate` of a true count `exact`. */
  def sampledCount(got: Double, exact: Long, rate: Double): Boolean =
    if (rate >= 1.0) got == exact
    else math.abs(got / rate - exact) <= Sigmas * math.sqrt(math.max(exact, 10L) / rate)

  /** Histogram bars against exact bucket counts, at the summary's rate. */
  def histogram(label: String, h: HistogramSummary, exact: Array[Long]): Problem =
    all(
      expect(h.counts.length == exact.length, s"$label: ${h.counts.length} buckets, want ${exact.length}"),
      h.counts.indices.collectFirst {
        case b if !sampledCount(h.counts(b).toDouble, exact(b), h.rate) =>
          s"$label: bucket $b holds ${h.counts(b)} at rate ${h.rate}, exact ${exact(b)}"
      })

  def cell(c: KeyCell): Any = c match {
    case NullCell   => null
    case NumCell(v) => v
    case StrCell(s) => s
  }

  def key(k: RowKey): Seq[Any] = k.cells.map(cell)

  /** A tabular page against the reference tuples and counts. */
  def page(label: String, got: Seq[(RowKey, Long)], want: Seq[(Seq[Any], Long)]): Problem = {
    val g = got.map { case (k, n) => (key(k), n) }
    expect(g == want, s"$label: got ${g.take(3).mkString(",")}…, want ${want.take(3).mkString(",")}…")
  }
}
