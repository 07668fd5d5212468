package repro.data

import org.scalatest.funsuite.AnyFunSuite
import scala.io.Source

class CostModelSpec extends AnyFunSuite {

  test("u01, basePref and priceImportance keep their golden bits") {
    val src = Source.fromResource("repro/data/cost-golden.txt")
    val golden = try src.getLines().filter(_.nonEmpty).toVector finally src.close()
    assert(CostModelSpec.goldenRows == golden)
  }

  test("u01 is deterministic and in [0,1)") {
    for (a <- 0 until 50; b <- 0 until 5) {
      val v = CostModel.u01(a, b, 42L)
      assert(v >= 0.0 && v < 1.0)
      assert(v == CostModel.u01(a, b, 42L))
    }
  }

  test("u01 varies with each argument") {
    assert(CostModel.u01(1, 2, 3L) != CostModel.u01(2, 2, 3L))
    assert(CostModel.u01(1, 2, 3L) != CostModel.u01(1, 3, 3L))
    assert(CostModel.u01(1, 2, 3L) != CostModel.u01(1, 2, 4L))
  }

  test("basePref lies in [0.05, 0.6]") {
    for (u <- 0 until 100; x <- 0 until 10) {
      val p = CostModel.basePref(u, x, 7L)
      assert(p >= 0.05 && p <= 0.6)
    }
  }

  test("cost grows with out-degree and shrinks with preference") {
    assert(CostModel.cost(10, 0.3, 1.0) > CostModel.cost(2, 0.3, 1.0))
    assert(CostModel.cost(5, 0.1, 1.0) > CostModel.cost(5, 0.5, 1.0))
    assert(CostModel.cost(5, 0.3, 2.0) == 2.0 * CostModel.cost(5, 0.3, 1.0))
  }

  test("cost is always positive") {
    for (d <- 0 until 50; p <- Seq(0.05, 0.3, 0.6))
      assert(CostModel.cost(d, p, 0.01) > 0.0)
  }

  test("price importance is clipped to [0.2, 3.0] and varies") {
    val ws = (0 until 200).map(x => CostModel.priceImportance(x, 9L))
    assert(ws.forall(w => w >= 0.2 && w <= 3.0))
    assert(ws.distinct.size > 100)
    // roughly centered near 1 (log-normal-ish with median e^0 = 1)
    val mean = ws.sum / ws.size
    assert(mean > 0.6 && mean < 1.8, s"mean $mean")
  }

  test("uniform importance is in [0.2, 3.0] and roughly uniform") {
    val ws = (0 until 500).map(x => CostModel.uniformImportance(x, 9L))
    assert(ws.forall(w => w >= 0.2 && w <= 3.0))
    val low = ws.count(_ < 1.6).toDouble / ws.size
    assert(low > 0.3 && low < 0.7, s"fraction below midpoint: $low")
  }
}

/** Every dataset's preferences, costs and importances derive from
  * [[CostModel.u01]]'s hash, so `cost-golden.txt` pins its values on a
  * fixed grid. It is written by
  * `sbt "Test/runMain repro.data.CostModelSpec src/test/resources/repro/data/cost-golden.txt"`.
  */
object CostModelSpec {

  private def bits(d: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToLongBits(d))

  def goldenRows: Vector[String] = {
    val u01 = for {
      a <- Seq(0, 1, 2, 17, 123, 4096, -3, Int.MaxValue)
      b <- Seq(0, 1, 3, 777)
      seed <- Seq(0L, 7L, 42L, -1L, 1L << 40)
    } yield s"u01 $a $b $seed|${bits(CostModel.u01(a, b, seed))}"
    val pref = for (u <- 0 until 10; x <- 0 until 5) yield s"basePref $u $x 7|${bits(CostModel.basePref(u, x, 7L))}"
    val price = for (seed <- Seq(9L, 42L); x <- 0 until 20) yield s"priceImportance $x $seed|${bits(CostModel.priceImportance(x, seed))}"
    (u01 ++ pref ++ price).toVector
  }

  def main(args: Array[String]): Unit = {
    val out = new java.io.PrintWriter(args(0), "UTF-8")
    try goldenRows.foreach(out.println)
    finally out.close()
  }
}
