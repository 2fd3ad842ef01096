package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.TestData.drain
import repro.core.SplitMix

class ColumnarBlockSpec extends AnyFunSuite {

  test("of() validates column sizes") {
    intercept[IllegalArgumentException] {
      ColumnarBlock.of(3, "x" -> DoubleColumn(Array(1.0, 2.0)))
    }
  }

  test("column() fails with a helpful message for unknown names") {
    val b  = TestData.doubleBlock(1, 2, 3)
    val ex = intercept[NoSuchElementException](b.column("nope"))
    assert(ex.getMessage.contains("nope"))
    assert(ex.getMessage.contains("x"))
  }

  private def twoColumns(): (ColumnarBlock, Column, Column) = {
    val x = DoubleColumn(Array(1.0, 2.0, 3.0))
    val y = LongColumn(Array(7L, 8L, 9L), null)
    (ColumnarBlock.of(3, "x" -> x, "y" -> y), x, y)
  }

  test("column() answers alternating names with their own columns") {
    val (b, x, y) = twoColumns()
    (0 until 1000).foreach { i =>
      assert(b.column("x") eq x)
      assert(b.column("y") eq y)
      if (i % 3 == 0) assert(b.column("y") eq y)
    }
  }

  test("column() resolves an equal but not identical name") {
    val (b, x, y) = twoColumns()
    val name = new String("x")
    assert(!(name eq "x"))
    assert(b.column("x") eq x)
    assert(b.column(name) eq x)
    assert(b.column(new String("y")) eq y)
    assert(b.column("x") eq x)
  }

  test("column() still rejects an unknown name after a successful lookup") {
    val (b, x, _) = twoColumns()
    assert(b.column("x") eq x)
    val ex = intercept[NoSuchElementException](b.column("nope"))
    assert(ex.getMessage.contains("nope"))
    assert(ex.getMessage.contains("x") && ex.getMessage.contains("y"))
    assert(b.column("x") eq x)
  }

  test("column() on a shared block gives each thread its own column") {
    val (b, x, y) = twoColumns()
    val wrong = new java.util.concurrent.atomic.AtomicLong()
    def hammer(name: String, want: Column): Thread = new Thread(() => {
      var i = 0
      while (i < 2000000) { if (!(b.column(name) eq want)) wrong.incrementAndGet(); i += 1 }
    })
    val threads = Seq(hammer("x", x), hammer("y", y))
    threads.foreach(_.start())
    threads.foreach(_.join())
    assert(wrong.get == 0L)
  }

  test("copied, filtered, derived and deserialized blocks do not inherit a stale column") {
    val (b, x, y) = twoColumns()
    assert(b.column("x") eq x)
    val x2 = DoubleColumn(Array(4.0, 5.0, 6.0))
    assert(b.copy(columns = Map("x" -> x2, "y" -> y)).column("x") eq x2)
    assert(b.filtered(_ > 0).column("x") eq x)
    val d = b.withDerived("x", (blk, i) => blk.column("y").asDouble(i))
    assert(d.column("x").asDouble(2) == 9.0)
    assert(b.column("x") eq x)

    val bytes = new java.io.ByteArrayOutputStream()
    val out   = new java.io.ObjectOutputStream(bytes)
    out.writeObject(b); out.close()
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[ColumnarBlock]
    assert(back.column("x").asDouble(1) == 2.0)
    assert(back.column("y").asDouble(1) == 8.0)
  }

  test("the block cursor visits every row once in order") {
    val b = TestData.doubleBlock(5, 6, 7, 8)
    assert(drain(b.batches) == Vector(0, 1, 2, 3))
  }

  test("filtered() restricts membership and preserves shared columns") {
    val b = TestData.doubleBlock(1, 2, 3, 4, 5, 6)
    val f = b.filtered(i => b.column("x").asDouble(i) > 3.0)
    assert(f.rowCount == 3)
    assert(f.columns eq b.columns) // data is shared, not copied
    assert(drain(f.batches).map(f.column("x").asDouble) == Vector(4.0, 5.0, 6.0))
  }

  test("filtered() composes: second filter applies within the first") {
    val b  = TestData.doubleBlock((1 to 100).map(_.toDouble): _*)
    val f1 = b.filtered(i => i % 2 == 0)
    val f2 = f1.filtered(i => i < 50)
    assert(f2.rowCount == 25)
    drain(f2.batches).foreach(i => assert(i % 2 == 0 && i < 50))
  }

  test("withDerived adds a computed column over members") {
    val b = TestData.doubleBlock(1, 2, 3)
    val d = b.withDerived("x2", (blk, i) => blk.column("x").asDouble(i) * 2)
    assert(d.column("x2").asDouble(1) == 4.0)
    assert(d.columns.contains("x"))
  }

  test("withDerived leaves non-members missing") {
    val b = TestData.doubleBlock(1, 2, 3, 4).filtered(_ >= 2)
    val d = b.withDerived("y", (blk, i) => blk.column("x").asDouble(i) + 1)
    assert(d.column("y").isMissing(0))
    assert(d.column("y").asDouble(2) == 4.0)
  }

  test("a sampled block cursor at rate 1 equals the full cursor") {
    val b = TestData.doubleBlock((1 to 50).map(_.toDouble): _*)
    assert(drain(b.batches) == drain(b.batches(1.0, new SplitMix(1))))
  }

  test("a sampled block cursor respects membership") {
    val b = TestData.doubleBlock((1 to 1000).map(_.toDouble): _*).filtered(_ % 10 == 0)
    drain(b.batches(0.5, new SplitMix(2))).foreach(i => assert(i % 10 == 0))
  }

  test("ofDoubles builds a fully-member single-column block") {
    val b = ColumnarBlock.ofDoubles("v", Array(9.0, 8.0))
    assert(b.rowCount == 2 && b.numRows == 2)
    assert(b.column("v").asDouble(0) == 9.0)
  }
}
