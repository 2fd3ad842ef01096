package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness._

/** T1 — §7.2.1 inline table. Paper (100M rows, one thread):
  * streaming 527 ms, sampling 197 ms, database system 5,830 ms.
  * Shape to hold: sampling < streaming << database, and the streaming
  * vizketch's leaf loop within 1.5× of a hand-written loop.
  */
class T1SingleThreadBench extends AnyFunSuite {

  test("T1: single-thread histogram — streaming vs sampling vs database") {
    val rows = T1SingleThread.run(rows = 10_000_000) ++ T1SingleThread.versusHandLoop(rows = 10_000_000)
    println(T1SingleThread.render(rows))
    val t = rows.map(r => r.method -> r.timeMs).toMap
    assert(t("sampling") < t("streaming"),
      s"sampling (${t("sampling")}ms) should beat streaming (${t("streaming")}ms)")
    // The paper's commercial DB is ~11× streaming; DuckDB is far faster,
    // so the margin asserted is looser but the ordering must hold.
    assert(t("database system") > 1.3 * t("streaming"),
      s"database (${t("database system")}ms) should be well above streaming (${t("streaming")}ms)")
    assert(t("database system") > 5 * t("sampling"),
      s"database (${t("database system")}ms) should dwarf sampling (${t("sampling")}ms)")
    assert(t("streaming, paired") <= 1.5 * t("hand loop"),
      s"streaming (${t("streaming, paired")}ms) should be within 1.5x of the hand loop (${t("hand loop")}ms)")
  }
}

/** T4 — Fig. 7. Paper: streaming latency constant up to 16 shards (then
  * hyper-threading), sampling super-linear (latency falls as shards grow).
  * The paper's machine has 16 cores; the claim is "constant up to the core
  * count", so 1 shard is compared against min(16, cores) shards.
  */
class T4ThreadScalabilityBench extends AnyFunSuite {

  /** Cores to scale to: `SPARK_GRAFT_CPUS`, else the JVM's processor count. */
  private val cores: Int =
    sys.env.get("SPARK_GRAFT_CPUS").flatMap(_.trim.toIntOption).filter(_ > 0)
      .getOrElse(Runtime.getRuntime.availableProcessors())

  test("T4: vizketch scalability across threads/shards") {
    val rows = T4ThreadScalability.run()
    println(T4ThreadScalability.render(rows))
    val byShards = rows.map(r => r.shards -> r).toMap
    // The largest shard count on the ladder that fits the cores.
    val top = rows.map(_.shards).filter(_ <= math.min(16, cores)).max
    // Streaming: near-constant up to the core count (allow 4x slack for a
    // shared machine; ideal is 1x).
    assert(byShards(top).streamingMs < 4 * byShards(1).streamingMs,
      s"streaming did not scale: 1→${byShards(1).streamingMs}ms, $top→${byShards(top).streamingMs}ms")
    // Sampling: super-linear — top× the data with the same total sample
    // must not cost anywhere near top× (noise allows up to 2× drift).
    assert(byShards(top).samplingMs <= byShards(1).samplingMs * 2.0,
      s"sampling did not super-scale: 1→${byShards(1).samplingMs}ms, $top→${byShards(top).samplingMs}ms")
  }
}

/** T5 — Fig. 8. Paper: streaming constant across servers; sampling
  * latency falls as servers (and data) grow.
  */
class T5ServerScalabilityBench extends AnyFunSuite {

  test("T5: vizketch scalability across simulated servers") {
    val rows = T5ServerScalability.run()
    println(T5ServerScalability.render(rows))
    val byServers = rows.map(r => r.servers -> r).toMap
    val sMax = rows.map(_.streamingMs).max
    val sMin = rows.map(_.streamingMs).min
    assert(sMax < 3 * sMin, s"streaming latency should stay ~constant: min=$sMin max=$sMax")
    assert(byServers(8).samplingMs < byServers(1).samplingMs,
      s"sampling should get faster with more servers: " +
        s"1→${byServers(1).samplingMs}ms, 8→${byServers(8).samplingMs}ms")
  }
}

/** T6 — Fig. 9. Paper: 35–191 LOC per vizketch. Shape: every vizketch is
  * a small, self-contained summarize/merge pair.
  */
class T6VizketchLocBench extends AnyFunSuite {

  test("T6: vizketch coding effort") {
    val rows = T6VizketchLoc.run()
    println(T6VizketchLoc.render(rows))
    rows.foreach { r =>
      assert(r.loc >= 5 && r.loc <= 250, s"${r.vizketch}: ${r.loc} LOC out of expected band")
    }
  }
}
