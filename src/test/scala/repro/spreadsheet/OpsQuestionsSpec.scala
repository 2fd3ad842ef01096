package repro.spreadsheet

import repro.SparkSpec
import repro.engine.ComputationCache
import repro.harness.Datasets

class OpsSpec extends SparkSpec {

  private lazy val table = repro.storage.ColumnStore
    .fromDataFrame("flights-ops", Datasets.flightsDf(spark, 120000).repartition(12)).warm()
  private def sheet = new Spreadsheet(new ComputationCache())

  private def run(op: String): Ops.OpResult = {
    val (_, _, fn) = Ops.all.find(_._1 == op).get
    fn(sheet, table)
  }

  for ((op, desc, _) <- Ops.all)
    test(s"$op runs: $desc") {
      val r = run(op)
      assert(r.totalMs > 0)
      assert(r.firstPartialMs <= r.totalMs + 1e-6)
      assert(r.rootBytes > 0)
      assert(r.updates >= 1)
    }

  test("O6's filter keeps only delayed flights") {
    val r = run("O6")
    val kept = r.note.stripPrefix("kept=").toLong
    assert(kept > 0 && kept < table.numRows)
  }

  test("O9's distinct estimate is near the true flight-number count") {
    val r = run("O9")
    val est = r.note.stripPrefix("distinct≈").toDouble
    assert(math.abs(est - 8000) / 8000 < 0.1, r.note)
  }

  test("O7 reports at most 50 string buckets") {
    assert(run("O7").note.stripPrefix("buckets=").toInt <= 50)
  }

  test("cold op list omits O4 and O6 as in Fig. 6") {
    val ids = Ops.coldOps.map(_._1)
    assert(!ids.contains("O4") && !ids.contains("O6"))
    assert(ids.size == 9)
  }

  test("vizketch root bytes are orders of magnitude below the data size") {
    val dataBytes = table.numRows * 8 * 10 // rough lower bound of cached bytes
    for (op <- Seq("O1", "O5", "O9")) {
      val r = run(op)
      assert(r.rootBytes < dataBytes / 100, s"$op shipped ${r.rootBytes} bytes")
    }
  }
}

class QuestionsSpec extends SparkSpec {

  private lazy val table = repro.storage.ColumnStore
    .fromDataFrame("flights-q", Datasets.flightsDf(spark, 200000).repartition(20)).warm()
  private lazy val sheet = new Spreadsheet(new ComputationCache())

  private lazy val answers: Map[String, Questions.Answer] =
    Questions.all.map { case (q, fn) => q -> fn(sheet, table) }.toMap

  for ((q, _) <- Questions.all)
    test(s"$q produces an answer") {
      val a = answers(q)
      assert(a.text.nonEmpty)
      assert(a.actions >= 1)
      assert(a.ms > 0)
    }

  test("Q1: UA has more late flights than AA (by construction)") {
    assert(answers("Q1").text.startsWith("UA"))
  }

  test("Q2: HA is the most punctual carrier") {
    assert(answers("Q2").text.startsWith("HA"))
  }

  test("Q7: best hour to fly is early morning") {
    val hour = answers("Q7").text.split(":")(0).toInt
    assert(hour <= 8, answers("Q7").text)
  }

  test("Q9: EV has the most cancellations") {
    assert(answers("Q9").text.startsWith("EV"))
  }

  test("Q11: reports a route and its distance") {
    assert(answers("Q11").text.contains("→") && answers("Q11").text.contains("miles"))
  }

  test("Q12: UA vs AA taxi difference is detected") {
    assert(answers("Q12").text.startsWith("yes"))
  }

  test("Q14: lists every carrier flying to Hawaii") {
    assert(answers("Q14").text.contains("airlines"))
  }

  test("Q15: answer is one of the Hawaii airports") {
    val hawaiians = Set("HNL", "OGG", "LIH", "KOA")
    assert(hawaiians.exists(answers("Q15").text.startsWith), answers("Q15").text)
  }

  test("Q19: exactly EV stopped flying") {
    val a = answers("Q19")
    assert(a.text.startsWith("1 ("), a.text)
    assert(a.text.contains("EV"))
  }

  test("Q20: correctly reports the dataset cannot answer") {
    assert(answers("Q20").text.contains("cannot determine"))
  }

  test("action counts match the paper's Fig. 11 style (1..6 per question)") {
    answers.values.foreach(a => assert(a.actions >= 1 && a.actions <= 6, s"${a.q}: ${a.actions}"))
  }
}
