package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestInstances
import scala.util.Random

class CandidatePoolSpec extends AnyFunSuite {

  /** The split written out with boxed tuple sorts under the implicit
    * `Ordering[Double]`.
    */
  private def tupleSplit(inst: ProblemInstance, size: Int)(gain: Nominee => Double): Vector[Nominee] = {
    val scored = for {
      u <- (0 until inst.nUsers).toVector
      x <- 0 until inst.nItems
      if ProblemInstance.fits(inst.cost(u)(x), inst.budget)
    } yield {
      val n = Nominee(u, x)
      val g = gain(n)
      (n, g, g / inst.cost(u)(x))
    }
    val byRatio = scored.sortBy(s => (-s._3, -s._2, s._1.user, s._1.item)).map(_._1)
    val byGain = scored.sortBy(s => (-s._2, -s._3, s._1.user, s._1.item)).map(_._1)
    (byRatio.take((size + 1) / 2) ++ byGain).distinct.take(size)
  }

  test("split equals the tuple sort on random instances with tied gains and costs") {
    // few distinct values force ties on both scores; ±0 and NaN exercise the total order
    val gains = Array(0.0, -0.0, 0.5, 1.0, 2.0, Double.NaN, Double.PositiveInfinity)
    val costs = Array(0.5, 1.0, 1.0, 2.0, 50.0)
    for (seed <- 1L to 60L) {
      val rnd = new Random(seed)
      val inst = TestInstances.random(seed, nUsers = 4 + rnd.nextInt(20), nItems = 1 + rnd.nextInt(6))
      val cost = Array.fill(inst.nUsers, inst.nItems)(costs(rnd.nextInt(costs.length)))
      val tied = inst.copy(cost = cost)
      val g = Array.fill(inst.nUsers, inst.nItems)(gains(rnd.nextInt(gains.length)))
      val gain = (n: Nominee) => g(n.user)(n.item)
      for (size <- Seq(1, 2, 5, 17, inst.nUsers * inst.nItems + 1))
        assert(CandidatePool.split(tied, size)(gain) == tupleSplit(tied, size)(gain), s"seed $seed, size $size")
      val proxy = (n: Nominee) => CandidatePool.proxyGain(tied, n.user, n.item)
      assert(CandidatePool.split(tied, 10)(proxy) == tupleSplit(tied, 10)(proxy), s"seed $seed, proxy gain")
    }
  }
}
