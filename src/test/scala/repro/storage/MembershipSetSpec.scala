package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData.drain
import repro.core.SplitMix

class MembershipSetSpec extends AnyFunSuite {

  test("from() with all-true predicate yields FullMembership") {
    assert(MembershipSet.from(100, _ => true).isInstanceOf[FullMembership])
  }

  test("from() chooses dense representation above the density threshold") {
    val m = MembershipSet.from(100, i => i % 2 == 0) // 50% density
    assert(m.isInstanceOf[DenseMembership])
    assert(m.size == 50)
  }

  test("from() chooses sparse representation for low density") {
    val m = MembershipSet.from(1000, i => i % 100 == 0) // 1% density
    assert(m.isInstanceOf[SparseMembership])
    assert(m.size == 10)
  }

  test("contains agrees with the predicate for all representations") {
    for (mod <- Seq(2, 50)) {
      val m = MembershipSet.from(500, i => i % mod == 0)
      (0 until 500).foreach(i => assert(m.contains(i) == (i % mod == 0), s"mod=$mod i=$i"))
    }
  }

  test("iterator yields members in increasing order") {
    for (mod <- Seq(1, 3, 97)) {
      val m   = MembershipSet.from(1000, i => i % mod == 0)
      val got = drain(m.batches)
      assert(got == got.sorted)
      assert(got == (0 until 1000).filter(_ % mod == 0).toVector)
    }
  }

  test("full membership size equals universe") {
    val m = MembershipSet.full(42)
    assert(m.size == 42 && m.universe == 42)
    assert(drain(m.batches) == (0 until 42).toVector)
  }

  test("sampling at rate 1 from full membership returns everything") {
    val m = MembershipSet.full(100)
    assert(drain(m.batches(1.0, new SplitMix(1))) == (0 until 100).toVector)
  }

  test("sampling is deterministic in the rng seed") {
    val m  = MembershipSet.from(10000, i => i % 3 == 0)
    val s1 = drain(m.batches(0.1, new SplitMix(5)))
    val s2 = drain(m.batches(0.1, new SplitMix(5)))
    assert(s1 == s2)
    assert(s1 != drain(m.batches(0.1, new SplitMix(6))))
  }

  test("sample returns only members, in increasing order") {
    for (mod <- Seq(2, 25)) {
      val m = MembershipSet.from(5000, i => i % mod == 0)
      val s = drain(m.batches(0.3, new SplitMix(8)))
      assert(s == s.sorted)
      s.foreach(i => assert(i % mod == 0))
    }
  }

  test("sample hit-rate approximates the Bernoulli rate") {
    for ((mk, name) <- Seq(
      (MembershipSet.full(100000), "full"),
      (MembershipSet.from(200000, (i: Int) => i % 2 == 0), "dense"),
      (MembershipSet.from(2000000, (i: Int) => i % 20 == 0), "sparse"))) {
      val rate = 0.1
      val n    = drain(mk.batches(rate, new SplitMix(13))).size
      val exp  = mk.size * rate
      assert(math.abs(n - exp) < 4 * math.sqrt(exp), s"$name: got $n expected ~$exp")
    }
  }

  test("sampling uniformity: first and second half get similar counts") {
    val m     = MembershipSet.from(100000, i => i % 2 == 0)
    val picks = drain(m.batches(0.2, new SplitMix(21)))
    val (lo, hi) = picks.partition(_ < 50000)
    assert(math.abs(lo.size - hi.size) < 5 * math.sqrt(picks.size.toDouble))
  }

  test("geometric skip with rate ~1 advances one by one") {
    // Scale 0 stands for rate 1.
    val rng = new SplitMix(3)
    (1 to 100).foreach(_ => assert(MembershipSet.skipBy(0.0, rng) == 1))
  }

  test("empty membership behaves") {
    val m = MembershipSet.from(10, _ => false)
    assert(m.size == 0)
    assert(drain(m.batches).isEmpty)
    assert(drain(m.batches(0.5, new SplitMix(1))).isEmpty)
  }

  // ---------- batch cursor ----------

  private val B = RowBatches.Capacity

  /** A bitmap membership whose members are exactly `members`. */
  private def dense(universe: Int, members: Seq[Int]): MembershipSet = {
    val words = new Array[Long]((universe + 63) / 64)
    members.foreach(i => words(i >>> 6) |= 1L << i)
    new DenseMembership(universe, words)
  }

  /** (name, set, its members) for each representation with `count` members. */
  private def representations(count: Int): Seq[(String, MembershipSet, Vector[Int])] = {
    val even  = (0 until count).map(_ * 2).toVector
    val every = (0 until count).map(_ * 7 + 3).toVector
    Seq(
      ("full", MembershipSet.full(count), (0 until count).toVector),
      ("dense", dense(2 * count + 1, even), even),
      ("sparse", new SparseMembership(7 * count + 5, every.toArray), every))
  }

  test("at rate 1 the cursor yields exactly the members, around batch boundaries") {
    for (count <- Seq(0, 1, B - 1, B, B + 1, 3 * B + 17); (name, m, members) <- representations(count)) {
      assert(drain(m.batches) == members, s"$name count=$count")
      assert(drain(m.batches(1.0, new SplitMix(4))) == members, s"$name count=$count (rate 1)")
      assert(m.size == count)
    }
    val empty = MembershipSet.from(100, _ => false)
    assert(drain(empty.batches).isEmpty && drain(empty.batches(0.5, new SplitMix(1))).isEmpty)
  }

  /** Large sets of each representation for the sampling statistics. */
  private val sampledSets = Seq(
    ("full", MembershipSet.full(200000)),
    ("dense", MembershipSet.from(300000, (i: Int) => i % 3 != 1)),
    ("sparse", MembershipSet.from(2000000, (i: Int) => i % 20 == 7)))

  test("sampled cursors yield members only, in increasing order, deterministic in the seed") {
    assert(sampledSets.map(_._2.getClass.getSimpleName) ==
      Seq("FullMembership", "DenseMembership", "SparseMembership"))
    for ((name, m) <- sampledSets; rate <- Seq(0.05, 0.3, 0.9)) {
      val s = drain(m.batches(rate, new SplitMix(31)))
      assert(s.forall(m.contains), s"$name rate=$rate: non-member sampled")
      assert(s.zip(s.drop(1)).forall { case (a, b) => a < b }, s"$name rate=$rate: not increasing")
      assert(s == drain(m.batches(rate, new SplitMix(31))), s"$name rate=$rate: not deterministic")
      assert(s != drain(m.batches(rate, new SplitMix(32))), s"$name rate=$rate: ignores the seed")
    }
  }

  test("sampled cursors hit rate·size members, evenly over the two halves") {
    for ((name, m) <- sampledSets; rate <- Seq(0.05, 0.3, 0.9)) {
      val s     = drain(m.batches(rate, new SplitMix(77)))
      val sigma = math.sqrt(m.size * rate * (1 - rate))
      assert(math.abs(s.size - m.size * rate) < 4 * sigma,
        s"$name rate=$rate: ${s.size} hits, expected ${m.size * rate} ± ${4 * sigma}")
      val members = drain(m.batches)
      val mid     = members(members.size / 2)
      val (lo, hi) = s.partition(_ < mid)
      assert(math.abs(lo.size - hi.size) < 5 * sigma,
        s"$name rate=$rate: halves ${lo.size} vs ${hi.size}")
    }
  }

  test("mean geometric skip is 1/rate") {
    for (rate <- Seq(0.005, 0.05, 0.3, 0.9)) {
      val rng   = new SplitMix(5)
      val draws = 100000
      val scale = -1.0 / math.log1p(-rate)
      val mean  = (0 until draws).map(_ => MembershipSet.skipBy(scale, rng).toDouble).sum / draws
      val sigma = math.sqrt((1 - rate) / (rate * rate) / draws)
      assert(math.abs(mean - 1 / rate) < 4 * sigma, s"rate=$rate: mean skip $mean, expected ${1 / rate}")
    }
  }

  test("from(parent, pred) equals filtering the universe") {
    for ((name, m) <- sampledSets) {
      val pred  = (i: Int) => i % 5 != 2
      var calls = 0
      val got   = MembershipSet.from(m, (i: Int) => { calls += 1; pred(i) })
      val ref   = MembershipSet.from(m.universe, i => m.contains(i) && pred(i))
      assert(calls == m.size, s"$name: predicate tested on non-members")
      assert(got.getClass == ref.getClass && got.size == ref.size, name)
      assert(drain(got.batches) == drain(ref.batches), name)
    }
  }
}
