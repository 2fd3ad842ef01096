package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData._

class NextItemsSketchSpec extends AnyFunSuite {

  private val values = Array(5.0, 3.0, 8.0, 3.0, 1.0, 8.0, 8.0, 2.0, 9.0, 1.0)
  private val sort   = Seq(SortCol("x"))

  private def run(k: Int, start: Option[RowKey] = None, parts: Int = 3) =
    sketchAll(NextItemsSketch(sort, k, start), splitBlocks(values, parts))

  private def key(v: Double) = RowKey(Vector(NumCell(v)))

  test("returns the K smallest distinct values with exact counts") {
    val got = run(3)
    assert(got.rows.map { case (k, c) => (k.cells.head.asInstanceOf[NumCell].v, c) } ==
      Vector((1.0, 2L), (2.0, 1L), (3.0, 2L)))
  }

  test("start row excludes keys up to and including it") {
    val got = run(3, Some(key(3.0)))
    assert(got.rows.map(_._1.cells.head.asInstanceOf[NumCell].v) == Vector(5.0, 8.0, 9.0))
  }

  test("duplicate counting survives truncation (eviction argument)") {
    // Keys arrive so that a large key is evicted then reappears.
    val vals = Array(9.0, 1.0, 2.0, 3.0, 9.0, 9.0, 0.5)
    val got  = sketchAll(NextItemsSketch(sort, 3), splitBlocks(vals, 1))
    assert(got.rows.map { case (k, c) => (k.cells.head.asInstanceOf[NumCell].v, c) } ==
      Vector((0.5, 1L), (1.0, 1L), (2.0, 1L)))
  }

  test("split invariance: any partitioning gives the same page") {
    val whole = run(4, parts = 1)
    for (p <- Seq(2, 5, 10)) assert(run(4, parts = p) == whole, s"parts=$p")
  }

  test("descending sort order") {
    val got = sketchAll(NextItemsSketch(Seq(SortCol("x", ascending = false)), 3), splitBlocks(values, 2))
    assert(got.rows.map(_._1.cells.head.asInstanceOf[NumCell].v) == Vector(9.0, 8.0, 5.0))
  }

  test("missing values sort last") {
    val vals = Array(2.0, Double.NaN, 1.0)
    val got  = sketchAll(NextItemsSketch(sort, 3), splitBlocks(vals, 1))
    assert(got.rows.last._1.cells.head == NullCell)
  }

  test("k larger than distinct count returns all") {
    val got = run(100)
    assert(got.rows.map(_._2).sum == values.length)
    assert(got.rows.size == values.distinct.length)
  }

  test("merge with zero is identity") {
    val sk = NextItemsSketch(sort, 5)
    val s  = run(5)
    assert(sk.merge(sk.zero, s) == s)
    assert(sk.merge(s, sk.zero) == s)
  }

  test("multi-column lexicographic ordering") {
    val xs = Array(1.0, 1.0, 2.0, 1.0)
    val ys = Array(9.0, 2.0, 0.0, 2.0)
    val b  = twoColBlock(xs, ys)
    val got = NextItemsSketch(Seq(SortCol("x"), SortCol("y")), 3).summarize(b, LeafCtx(0, 0))
    assert(got.rows.map(r => (r._1.cells(0).asInstanceOf[NumCell].v,
                              r._1.cells(1).asInstanceOf[NumCell].v, r._2)) ==
      Vector((1.0, 2.0, 2L), (1.0, 9.0, 1L), (2.0, 0.0, 1L)))
  }

  test("rejects non-positive k") {
    intercept[IllegalArgumentException](NextItemsSketch(sort, 0))
  }
}

class RowKeySpec extends AnyFunSuite {

  test("KeyCell ordering: numbers ascend, nulls last") {
    val ord = KeyCell.ordering
    assert(ord.compare(NumCell(1), NumCell(2)) < 0)
    assert(ord.compare(NumCell(2), NumCell(2)) == 0)
    assert(ord.compare(NullCell, NumCell(1e9)) > 0)
    assert(ord.compare(StrCell("a"), StrCell("b")) < 0)
  }

  test("RowKey ordering honors per-column direction") {
    val ord = RowKey.ordering(Seq(SortCol("a", ascending = false), SortCol("b")))
    val k1  = RowKey(Vector(NumCell(2), NumCell(5)))
    val k2  = RowKey(Vector(NumCell(1), NumCell(0)))
    assert(ord.compare(k1, k2) < 0) // 2 before 1 when descending
    val k3 = RowKey(Vector(NumCell(2), NumCell(6)))
    assert(ord.compare(k1, k3) < 0) // tie on a, ascending b
  }

  test("render is human readable") {
    assert(RowKey(Vector(NumCell(3.0), StrCell("UA"), NullCell)).render == "3|UA|∅")
  }
}

class FindTextSketchSpec extends AnyFunSuite {
  import repro.TestData

  private val names = Seq("Gandalf", "frodo", "GANDALF", "sam", "Bilbo", "gandalf the grey")
  private val block = TestData.stringBlock("s", names)
  private val sort  = Seq(SortCol("s"))

  private def find(pattern: String, mode: TextMatchMode, cs: Boolean,
                   start: Option[RowKey] = None) =
    FindTextSketch("s", pattern, mode, cs, sort, start).summarize(block, LeafCtx(0, 0))

  test("exact match, case sensitive") {
    val got = find("Gandalf", ExactMatch, cs = true)
    assert(got.matches == 1)
    assert(got.firstMatch.get.cells.head == StrCell("Gandalf"))
  }

  test("exact match, case insensitive counts all case variants") {
    assert(find("gandalf", ExactMatch, cs = false).matches == 2)
  }

  test("substring match") {
    assert(find("andalf", SubstringMatch, cs = false).matches == 3)
  }

  test("regex match") {
    // Case sensitive: matches "Gandalf" and "gandalf the grey" but not "GANDALF".
    val got = find("^[Gg]andalf.*", RegexMatch, cs = true)
    assert(got.matches == 2)
    // Case-insensitive regex picks up "GANDALF" too.
    assert(find("^[Gg]andalf.*", RegexMatch, cs = false).matches == 3)
  }

  test("no match returns empty summary") {
    val got = find("sauron", SubstringMatch, cs = false)
    assert(got.matches == 0 && got.firstMatch.isEmpty)
  }

  test("start key advances past earlier matches in sort order") {
    val first = find("a", SubstringMatch, cs = false).firstMatch
    val got   = find("a", SubstringMatch, cs = false, start = first)
    assert(got.firstMatch.isDefined)
    assert(RowKey.ordering(sort).compare(got.firstMatch.get, first.get) > 0)
  }

  test("merge takes the smaller first match and sums counts") {
    val sk = FindTextSketch("s", "a", SubstringMatch, false, sort, None)
    val b1 = TestData.stringBlock("s", Seq("zebra"))
    val b2 = TestData.stringBlock("s", Seq("apple"))
    val m  = sk.merge(sk.summarize(b1, LeafCtx(0, 0)), sk.summarize(b2, LeafCtx(1, 0)))
    assert(m.matches == 2)
    assert(m.firstMatch.get.cells.head == StrCell("apple"))
  }
}

/** The dictionary-code paths of next-items and find-text against
  * brute force over materialized RowKeys.
  */
class DictionaryPathSpec extends AnyFunSuite {
  import repro.TestData

  private val blocks = (0 until 3).map(b => TestData.mixedBlock(400, seed = 60 + b))

  private def allKeys(sortCols: Seq[SortCol]): Seq[RowKey] =
    blocks.flatMap(b => (0 until b.numRows).map(i => RowKey.of(b, sortCols.map(_.name), i)))

  test("single string sort counts per code and matches brute force") {
    for (asc <- Seq(true, false); k <- Seq(2, 3, 20);
         start <- Seq(None, Some(RowKey(Vector(StrCell("B6")))), Some(RowKey(Vector(NullCell))))) {
      val sortCols = Seq(SortCol("s", asc))
      val ord      = RowKey.ordering(sortCols)
      val want = allKeys(sortCols).filter(key => start.forall(s => ord.compare(key, s) > 0))
        .groupBy(identity).view.mapValues(_.size.toLong).toVector.sortBy(_._1)(ord).take(k)
      val got = sketchAll(NextItemsSketch(sortCols, k, start), blocks).rows
      assert(got == want, s"asc=$asc k=$k start=$start")
    }
  }

  test("find-text first match and count match brute force under a mixed sort") {
    val sortCols = Seq(SortCol("x", ascending = false), SortCol("l"), SortCol("d"))
    val ord      = RowKey.ordering(sortCols)
    for (pattern <- Seq("A", "b6", "zz"); start <- Seq(None, Some(RowKey(Vector(NumCell(4.0), NumCell(0), NullCell))))) {
      val hits = blocks.flatMap(b => (0 until b.numRows).collect {
        case i if Option(b.column("s").asString(i)).exists(_.toLowerCase.contains(pattern.toLowerCase)) =>
          RowKey.of(b, sortCols.map(_.name), i)
      })
      val first = hits.filter(key => start.forall(s => ord.compare(key, s) > 0)).sorted(ord).headOption
      val got   = sketchAll(FindTextSketch("s", pattern, SubstringMatch, caseSensitive = false, sortCols, start), blocks)
      assert(got.matches == hits.size.toLong && got.firstMatch == first, s"pattern=$pattern start=$start")
    }
  }
}
