package repro.core

import repro.storage.{ColumnarBlock, RowBatches}

/** Co-moment summary over M numeric columns: count, per-column sums, and
  * the M×M matrix of cross-product sums — everything needed to form the
  * covariance/correlation matrix at the root (App. B.3 "Principal
  * component analysis": "this matrix can be efficiently computed by a
  * sampling-based sketch"). Rows with any missing value are skipped.
  */
final case class CoMomentsSummary(
    n: Long,
    sums: Array[Double],
    cross: Array[Double], // row-major M×M, upper triangle mirrored on merge-out
    m: Int,
    rate: Double
) extends Serializable

final case class PcaSketch(cols: Seq[String], rate: Double = 1.0)
    extends Sketch[CoMomentsSummary] {
  require(cols.nonEmpty, "PCA needs at least one column")
  require(rate > 0 && rate <= 1.0)
  def name            = "pca.comoments"
  override def params = f"${cols.mkString("+")},r=$rate%.8f"

  private val m = cols.size

  def zero = CoMomentsSummary(0L, new Array[Double](m), new Array[Double](m * m), m, rate)

  /** Gathers each column of a row batch with `Column.doubles`, then
    * accumulates the rows in order.
    */
  def summarize(block: ColumnarBlock, ctx: LeafCtx): CoMomentsSummary = {
    val cs    = cols.map(block.column).toArray
    val xs    = Array.fill(m)(new Array[Double](RowBatches.Capacity))
    val sums  = new Array[Double](m)
    val cross = new Array[Double](m * m)
    var n     = 0L
    val rb    = block.batches(rate, ctx.rng)
    while (rb.next()) {
      var j = 0
      while (j < m) { cs(j).doubles(rb.rows, rb.size, xs(j)); j += 1 }
      var r = 0
      while (r < rb.size) {
        j = 0
        while (j < m && !xs(j)(r).isNaN) j += 1
        if (j == m) {
          n += 1
          j = 0
          while (j < m) {
            val xj = xs(j)(r)
            sums(j) += xj
            var l = j
            while (l < m) { cross(j * m + l) += xj * xs(l)(r); l += 1 }
            j += 1
          }
        }
        r += 1
      }
    }
    CoMomentsSummary(n, sums, cross, m, rate)
  }

  def merge(a: CoMomentsSummary, b: CoMomentsSummary): CoMomentsSummary = {
    val sums  = new Array[Double](m)
    val cross = new Array[Double](m * m)
    var i = 0
    while (i < m) { sums(i) = a.sums(i) + b.sums(i); i += 1 }
    i = 0
    while (i < m * m) { cross(i) = a.cross(i) + b.cross(i); i += 1 }
    CoMomentsSummary(a.n + b.n, sums, cross, m, rate)
  }
}

/** Root-side PCA: correlation matrix → Jacobi eigendecomposition → top-k
  * components. The eigensolver is in-house (symmetric Jacobi rotations),
  * avoiding any dependency beyond the JDK.
  */
object Pca {

  final case class Result(eigenvalues: Array[Double], eigenvectors: Array[Array[Double]])

  /** Correlation matrix from the co-moment sums (unit diagonal). */
  def correlationMatrix(s: CoMomentsSummary): Array[Array[Double]] = {
    val m    = s.m
    val n    = s.n.toDouble
    val mean = Array.tabulate(m)(j => s.sums(j) / n)
    val cov  = Array.ofDim[Double](m, m)
    for (j <- 0 until m; l <- j until m) {
      val c = s.cross(j * m + l) / n - mean(j) * mean(l)
      cov(j)(l) = c; cov(l)(j) = c
    }
    val sd = Array.tabulate(m)(j => math.sqrt(math.max(cov(j)(j), 1e-300)))
    Array.tabulate(m, m)((j, l) => cov(j)(l) / (sd(j) * sd(l)))
  }

  /** Top-k principal components of the correlation matrix, eigenvalues
    * descending; eigenvectors are rows of the returned matrix.
    */
  def topComponents(s: CoMomentsSummary, k: Int): Result = {
    val (values, vectors) = jacobiEigen(correlationMatrix(s))
    val order = values.indices.sortBy(i => -values(i)).take(k)
    Result(order.map(values).toArray, order.map(vectors).toArray)
  }

  /** Cyclic Jacobi eigendecomposition of a symmetric matrix. Returns
    * (eigenvalues, eigenvectors-as-rows). O(m³) per sweep; fine for the
    * small M (≤ tens of columns) a spreadsheet selects.
    */
  def jacobiEigen(mat: Array[Array[Double]], sweeps: Int = 50, tol: Double = 1e-12): (Array[Double], Array[Array[Double]]) = {
    val m = mat.length
    val a = Array.tabulate(m, m)((i, j) => mat(i)(j))
    val v = Array.tabulate(m, m)((i, j) => if (i == j) 1.0 else 0.0)
    var sweep = 0
    var off   = offDiagNorm(a)
    while (sweep < sweeps && off > tol) {
      for (p <- 0 until m - 1; q <- p + 1 until m if math.abs(a(p)(q)) > tol / (m * m)) {
        val theta = (a(q)(q) - a(p)(p)) / (2.0 * a(p)(q))
        // θ = 0 means a 45° rotation, not "no rotation" — signum(0) = 0
        // would silently skip equal-diagonal pairs.
        val t =
          if (theta == 0.0) 1.0
          else math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0))
        val c     = 1.0 / math.sqrt(t * t + 1.0)
        val s     = t * c
        for (i <- 0 until m) {
          val aip = a(i)(p); val aiq = a(i)(q)
          a(i)(p) = c * aip - s * aiq
          a(i)(q) = s * aip + c * aiq
        }
        for (i <- 0 until m) {
          val api = a(p)(i); val aqi = a(q)(i)
          a(p)(i) = c * api - s * aqi
          a(q)(i) = s * api + c * aqi
        }
        for (i <- 0 until m) {
          val vip = v(i)(p); val viq = v(i)(q)
          v(i)(p) = c * vip - s * viq
          v(i)(q) = s * vip + c * viq
        }
      }
      off = offDiagNorm(a)
      sweep += 1
    }
    val values  = Array.tabulate(m)(i => a(i)(i))
    val vectors = Array.tabulate(m)(j => Array.tabulate(m)(i => v(i)(j))) // column j -> row
    (values, vectors)
  }

  private def offDiagNorm(a: Array[Array[Double]]): Double = {
    var s = 0.0
    for (i <- a.indices; j <- a.indices if i != j) s += a(i)(j) * a(i)(j)
    math.sqrt(s)
  }
}
