package perfbench

import org.apache.spark.sql.functions.{col, lit, lower}
import repro.core._
import repro.engine.ComputationCache
import repro.spreadsheet.{Spreadsheet, Viz}
import repro.storage.{CachedTable, ColumnarBlock, RowPred}

/** What an action hands back to the loop: the time from issue to the first
  * partial result the root emitted, and a check run off the clock.
  */
final case class Done(firstPartialMs: Double, check: () => Checks.Problem)

/** One spreadsheet action. `run` gets the nanoTime at which it was issued. */
final case class Action(name: String, run: Long => Done)

/** The actions of each pass over one warm table, and the computation
  * cache of the spreadsheet that serves them.
  */
trait Session {
  def actions: IndexedSeq[Action]
  def cache: ComputationCache
}

/** A named workload: its table size and how to start a session on it.
  * README.md records why each workload exists and what it exposes.
  */
trait Workload {
  def name: String
  def rows: Long
  /** Passes run during set-up, until the JIT has compiled the per-job
    * paths of Spark and the engine; later passes no longer speed up.
    */
  def warmupPasses: Int
  def start(t: CachedTable, ref: Reference, seed: Long): Session
}

object Workload {
  val all: Seq[Workload] = Seq(Charts, Tabular)

  def named(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n'; have ${all.map(_.name).mkString(", ")}"))

  /** Columns the actions touch; the cache loads only these. */
  val Columns: Seq[String] = Seq(
    "FlightDate", "Month", "DayOfMonth", "DayOfWeek", "DepHour", "Carrier",
    "FlightNum", "Origin", "OriginState", "Dest", "DestState",
    "DepDelay", "ArrDelay", "TaxiIn", "TaxiOut", "Distance",
    "Cancelled", "Diverted", "WeatherDelay")

  /** A per-action sketch seed drawn from the workload seed. */
  def sketchSeed(seed: Long, action: Int): Long = new scala.util.Random(seed * 7919L + action).nextLong()

  /** Ms from issue to `callStart`, plus the root's first partial after it. */
  def firstPartial(issuedNs: Long, callStartNs: Long, viz: Viz[_]): Double =
    Stats.ms(issuedNs, callStartNs) + viz.info.firstPartialMs
}

/** Rows with a positive value in a numeric column (O6's "delayed" filter). */
final class Positive(column: String) extends RowPred {
  def apply(b: ColumnarBlock, i: Int): Boolean = b.column(column).asDouble(i) > 0.0
}

/** Charts: a histogram, O5, O6, O7, O10, O11 and a trellis of heatmaps, one
  * spreadsheet for the whole run, so preparation ranges are cached after the
  * first pass.
  */
object Charts extends Workload {
  val name = "charts"
  val rows = 500000L
  val warmupPasses = 12

  def start(t: CachedTable, ref: Reference, seed: Long): Session = new Session {
    private val s = new Spreadsheet(new ComputationCache())
    def cache     = s.cache

    private val both = col("DepDelay").isNotNull && col("ArrDelay").isNotNull
    private val counts = ref.counts("DepDelay" -> lit(true), "ArrDelay" -> (col("DepDelay") > 0),
      "DepHour" -> lit(true), "Origin" -> lit(true), "Carrier" -> lit(true), "Distance" -> lit(true),
      "Carrier" -> both)
    private val (dep, arrPos, hour, origin, carrier, distance, carrierWithDelays) =
      (counts(0), counts(1), counts(2), counts(3), counts(4), counts(5), counts(6))
    private val (dMin, dMax) = Reference.numericRange(dep)
    private val (aMin, aMax) = Reference.numericRange(arrPos)
    private val (hMin, hMax) = Reference.numericRange(hour)
    private val (xMin, xMax) = Reference.numericRange(distance)
    private val kept       = dep.collect { case (d: java.lang.Double, c) if d > 0 => c }.sum
    private val withDelays = carrierWithDelays.values.sum

    private def histAndCdf(label: String, v: (HistogramSummary, HistogramSummary),
                           counts: Map[Any, Long], min: Double, max: Double): Checks.Problem =
      Checks.all(
        Checks.histogram(s"$label histogram", v._1, Reference.histogram(counts, min, max, v._1.counts.length)),
        Checks.histogram(s"$label cdf", v._2, Reference.histogram(counts, min, max, v._2.counts.length)))

    /** O7's bars: one per distinct origin, or per range of origins starting
      * at each label when there are more origins than buckets.
      */
    private def originBars(labels: IndexedSeq[String]): Array[Long] = {
      val sorted = labels.sorted
      val exact  = sorted.toSet == origin.keySet.filter(_ != null).map(_.toString)
      val out    = new Array[Long](labels.length)
      origin.foreach {
        case (null, _) =>
        case (o, c) =>
          val v = o.toString
          val b = if (exact) labels.indexOf(v) else labels.lastIndexWhere(_ <= v)
          if (b >= 0) out(b) += c
      }
      out
    }

    private val o5 = Action("O5", issued => {
      val t0 = System.nanoTime()
      val v  = s.histogramWithCdf(t, "DepDelay", seed = Workload.sketchSeed(seed, 5))
      Done(Workload.firstPartial(issued, t0, v), () => histAndCdf("O5", v.result, dep, dMin, dMax))
    })

    private val o6 = Action("O6", issued => {
      val filtered = t.filter("delayed", new Positive("DepDelay")).warm()
      try {
        val t0 = System.nanoTime()
        val v  = s.histogramWithCdf(filtered, "ArrDelay", seed = Workload.sketchSeed(seed, 6))
        val n  = filtered.numRows
        Done(Workload.firstPartial(issued, t0, v), () => Checks.all(
          Checks.expect(n == kept, s"O6 kept $n rows, want $kept"),
          histAndCdf("O6", v.result, arrPos, aMin, aMax)))
      } finally filtered.drop()
    })

    private val o7 = Action("O7", issued => {
      val t0 = System.nanoTime()
      val v  = s.stringHistogram(t, "Origin", seed = Workload.sketchSeed(seed, 7))
      val (bk, h) = v.result
      Done(Workload.firstPartial(issued, t0, v), () => {
        val labels = (0 until bk.count).map(bk.label)
        Checks.all(
          Checks.expect(h.missing == 0 && h.sampled == ref.rows,
            s"O7 scanned ${h.sampled} rows with ${h.missing} missing, want ${ref.rows} and 0"),
          Checks.expect(h.counts.toSeq == originBars(labels).toSeq,
            s"O7 bars ${h.counts.take(5).mkString(",")}… differ from the exact counts"))
      })
    })

    private val o10 = Action("O10", issued => {
      val t0 = System.nanoTime()
      val v  = s.stackedHistogramWithCdf(t, "DepHour", "Carrier", seed = Workload.sketchSeed(seed, 10))
      val (st, cdf) = v.result
      Done(Workload.firstPartial(issued, t0, v), () => {
        val bars = Reference.histogram(hour, hMin, hMax, st.bx)
        Checks.all(
          st.barCounts.indices.collectFirst {
            case x if !Checks.sampledCount(st.barCounts(x).toDouble, bars(x), st.rate) =>
              s"O10 bar $x holds ${st.barCounts(x)} at rate ${st.rate}, exact ${bars(x)}"
          },
          Checks.histogram("O10 cdf", cdf, Reference.histogram(hour, hMin, hMax, cdf.counts.length)))
      })
    })

    private val o11 = Action("O11", issued => {
      val t0 = System.nanoTime()
      val v  = s.heatmap(t, "DepDelay", "ArrDelay", seed = Workload.sketchSeed(seed, 11))
      val h  = v.result
      Done(Workload.firstPartial(issued, t0, v), () =>
        Checks.expect(Checks.sampledCount(h.cells.sum.toDouble, withDelays, h.rate),
          s"O11 holds ${h.cells.sum} cells at rate ${h.rate}, exact $withDelays"))
    })

    private val trellis = Action("trellis", issued => {
      val t0 = System.nanoTime()
      val v  = s.trellisHeatmap(t, "Carrier", "DepDelay", "ArrDelay", seed = Workload.sketchSeed(seed, 12))
      val plots = v.result.plots
      Done(Workload.firstPartial(issued, t0, v), () => Checks.all(
        Checks.expect(plots.map(_.sampled).sorted.toSeq == carrier.values.toSeq.sorted,
          s"trellis group sizes ${plots.map(_.sampled).mkString(",")} differ from the carrier counts"),
        Checks.expect(plots.map(_.cells.sum).sorted.toSeq == carrierWithDelays.values.toSeq.sorted,
          "trellis cell totals differ from the per-carrier counts")))
    })

    /** A plain histogram, the cheapest chart. */
    private val hist = Action("histogram", issued => {
      val t0 = System.nanoTime()
      val v  = s.histogram(t, "Distance", seed = Workload.sketchSeed(seed, 14))
      Done(Workload.firstPartial(issued, t0, v), () =>
        Checks.histogram("histogram", v.result, Reference.histogram(distance, xMin, xMax, v.result.counts.length)))
    })

    val actions = IndexedSeq(hist, o5, o6, o7, o10, o11, trellis)
  }
}

/** Tabular: O1–O3, two O4 scroll-bar jumps (to the median and to the first
  * quartile), O8, O9, the next page after O1's and O2's first pages, and
  * find-text, one spreadsheet for the whole run. No filters and no
  * preparation trees. O4 is the slowest action by far; with two of the ten
  * actions per pass it is the top fifth, so p90 falls inside its latencies
  * rather than in the gap between it and O3.
  */
object Tabular extends Workload {
  val name = "tabular"
  val rows = 250000L
  /** Tabular passes keep speeding up for 100–180 actions, by another
    * 20–30% after the first ninety. Runs that measured them still speeding
    * up read up to 40% slower than runs that did not.
    */
  val warmupPasses = 16

  val K = 20
  val Sort1: Seq[SortCol] = Seq(SortCol("DepDelay"))
  val Sort5: Seq[SortCol] =
    Seq("DepDelay", "ArrDelay", "Distance", "TaxiIn", "TaxiOut").map(SortCol(_))

  def start(t: CachedTable, ref: Reference, seed: Long): Session = new Session {
    private val s = new Spreadsheet(new ComputationCache())
    def cache     = s.cache

    private val counts  = ref.counts("DepDelay" -> lit(true), "Origin" -> lit(true),
      "FlightNum" -> lit(true), "DepDelay" -> (lower(col("Origin")) === "sfo"), "Carrier" -> lit(true))
    private val (dep, origin) = (counts(0), counts(1))
    private val flights = counts(2).keys.count(_ != null)
    private val keys1   = Reference.sortedKeys(dep).take(2 * K)
    private val keysCar = Reference.sortedKeys(counts(4)).take(2 * K)
    private val keys5   = ref.firstKeys(Sort5.map(_.name), 2 * K)
    private val sfo     = origin.collect { case (o: String, c) if o.equalsIgnoreCase("sfo") => c }.sum
    /** The first SFO row under the DepDelay order: its smallest delay, nulls last. */
    private val sfoFirst: Option[Seq[Any]] = {
      val d = counts(3).keys.collect { case x: java.lang.Double => x.doubleValue }
      if (sfo == 0) None else Some(Seq(if (d.isEmpty) null else d.min))
    }

    private def rowKey(cells: Seq[Any]): RowKey = RowKey(cells.map {
      case null      => NullCell
      case s: String => StrCell(s)
      case d: Double => NumCell(d)
    }.toVector)

    private def nextItems(name: String, sort: Seq[SortCol], want: Seq[(Seq[Any], Long)],
                          start: Option[RowKey], id: Int) = Action(name, issued => {
      val t0 = System.nanoTime()
      val v  = s.nextItems(t, sort, K, start, seed = Workload.sketchSeed(seed, id))
      Done(Workload.firstPartial(issued, t0, v), () => Checks.page(name, v.result.rows, want))
    })

    /** O4: a scroll-bar jump to quantile q shows the rows after the sampled
      * q-quantile. The first row's first sort column has a rank interval
      * that must meet q·N within six standard errors of a quantile estimate
      * from the sketch's uniform sample (Theorem 2). The bound uses
      * q(1-q) ≤ 1/4.
      */
    private def o4(name: String, q: Double, id: Int) = Action(name, issued => {
      val t0 = System.nanoTime()
      val v  = s.quantileThenNext(t, Sort5, q, K, seed = Workload.sketchSeed(seed, id))
      Done(Workload.firstPartial(issued, t0, v), () => v.result.rows.headOption match {
        case None => Some(s"$name returned an empty page")
        case Some((k, _)) =>
          val x     = Checks.key(k).head
          val below = dep.collect { case (d: java.lang.Double, c) if x != null && d < x.asInstanceOf[Double] => c }.sum
          val upTo  = below + dep.getOrElse(x, 0L)
          val n     = ref.rows.toDouble
          val samples = math.min(s.defaultScrollV.toLong * s.defaultScrollV, n.toLong)
          val tol   = Checks.Sigmas * math.sqrt(0.25 / samples) * n
          Checks.expect(upTo >= q * n - tol && below <= q * n + tol,
            s"$name row DepDelay=$x has rank [$below, $upTo], want ${q * n} ± $tol")
      })
    })

    /** O8: sampled heavy hitters (Theorem 4). Each reported estimate lies
      * within the binomial envelope of its exact count, every value above
      * the 1/K threshold is reported, and none far below 3/(4K) is.
      */
    private val o8 = Action("O8", issued => {
      val t0 = System.nanoTime()
      val v  = s.heavyHittersSampling(t, "Origin", K, seed = Workload.sketchSeed(seed, 8))
      Done(Workload.firstPartial(issued, t0, v), () => {
        val n    = ref.rows.toDouble
        val rate = SampleSize.rate(SampleSize.heavyHitters(K), ref.rows)
        val got  = v.result.toMap
        val sd   = (c: Long) => math.sqrt(math.max(c, 10L) / rate)
        Checks.all(
          got.collectFirst {
            case (o, e) if !Checks.sampledCount(e * rate, origin.getOrElse(o, 0L), rate) =>
              s"O8 estimates $o at $e, exact ${origin.getOrElse(o, 0L)}"
          },
          origin.collectFirst {
            case (o, c) if o != null && c >= n / K + Checks.Sigmas * sd(c) && !got.contains(o.toString) =>
              s"O8 misses heavy hitter $o ($c rows)"
          },
          got.keys.collectFirst {
            case o if origin.getOrElse(o, 0L) < 3 * n / (4 * K) - Checks.Sigmas * sd(origin.getOrElse(o, 0L)) =>
              s"O8 reports light value $o (${origin.getOrElse(o, 0L)} rows)"
          })
      })
    })

    /** O9: HyperLogLog within 3σ of its relative standard error 1.04/√m. */
    private val o9 = Action("O9", issued => {
      val t0 = System.nanoTime()
      val v  = s.distinctCount(t, "FlightNum", seed = Workload.sketchSeed(seed, 9))
      Done(Workload.firstPartial(issued, t0, v), () => {
        val tol = 3 * 1.04 / math.sqrt(1 << HllSketch("FlightNum").p) * flights
        Checks.expect(math.abs(v.result - flights) <= tol, s"O9 estimates ${v.result}, exact $flights ± $tol")
      })
    })

    private val find = Action("find", issued => {
      val t0 = System.nanoTime()
      val v  = s.findText(t, "Origin", "sfo", ExactMatch, caseSensitive = false, Sort1,
        seed = Workload.sketchSeed(seed, 13))
      Done(Workload.firstPartial(issued, t0, v), () => Checks.all(
        Checks.expect(v.result.matches == sfo, s"find counts ${v.result.matches} matches, want $sfo"),
        Checks.expect(v.result.firstMatch.map(Checks.key) == sfoFirst,
          s"find's first match ${v.result.firstMatch} differs from $sfoFirst")))
    })

    val actions = IndexedSeq(
      nextItems("O1", Sort1, keys1.take(K), None, 1),
      nextItems("O1-next", Sort1, keys1.slice(K, 2 * K), Some(rowKey(keys1(K - 1)._1)), 101),
      nextItems("O2", Sort5, keys5.take(K), None, 2),
      nextItems("O2-next", Sort5, keys5.slice(K, 2 * K), Some(rowKey(keys5(K - 1)._1)), 102),
      nextItems("O3", Seq(SortCol("Carrier")), keysCar.take(K), None, 3),
      o4("O4", 0.5, 4), o4("O4-q25", 0.25, 104), o8, o9, find)
  }
}
