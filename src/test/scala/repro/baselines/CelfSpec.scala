package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CelfSpec extends AnyFunSuite {

  /** Additive set function: f(S) = Σ value(e). Submodular (modular). */
  private def additive(values: Map[Int, Double]): Set[Int] => Double =
    s => s.iterator.map(values).sum

  test("picks the best ratio element first") {
    val values = Map(1 -> 10.0, 2 -> 3.0, 3 -> 8.0)
    val cost = Map(1 -> 5.0, 2 -> 1.0, 3 -> 2.0)
    val sel = Celf.select[Int](Vector(1, 2, 3), cost, budget = 100, additive(values))
    assert(sel.head == 3) // ratio 4 beats 3 and 2
  }

  test("respects the budget") {
    val values = Map(1 -> 10.0, 2 -> 9.0, 3 -> 8.0)
    val cost = Map(1 -> 4.0, 2 -> 4.0, 3 -> 4.0)
    val sel = Celf.select[Int](Vector(1, 2, 3), cost, budget = 8, additive(values))
    assert(sel.size == 2)
    assert(sel.map(cost).sum <= 8.0)
  }

  test("skips unaffordable elements but keeps cheaper ones") {
    val values = Map(1 -> 100.0, 2 -> 1.0)
    val cost = Map(1 -> 50.0, 2 -> 1.0)
    val sel = Celf.select[Int](Vector(1, 2), cost, budget = 10, additive(values))
    assert(sel == Vector(2))
  }

  test("stops on zero marginal gain") {
    val values = Map(1 -> 5.0, 2 -> 0.0)
    val cost = Map(1 -> 1.0, 2 -> 1.0)
    val sel = Celf.select[Int](Vector(1, 2), cost, budget = 100, additive(values))
    assert(sel == Vector(1))
  }

  test("rejects non-positive costs") {
    assertThrows[IllegalArgumentException](
      Celf.select[Int](Vector(1), Map(1 -> 0.0), 10, additive(Map(1 -> 1.0))))
  }

  test("equals eager greedy on additive functions (randomized property)") {
    for (seed <- 1L to 60L) {
      val rnd = new scala.util.Random(seed)
      val n = 2 + rnd.nextInt(6)
      val values = (0 until n).map(i => i -> rnd.nextDouble() * 10).toMap
      val cost = (0 until n).map(i => i -> (0.5 + rnd.nextDouble() * 3)).toMap
      val budget = 1.0 + rnd.nextDouble() * 6
      val celf = Celf.select[Int]((0 until n).toVector, cost, budget, additive(values))
      // eager greedy reference
      var remaining = (0 until n).toSet
      var spent = 0.0
      val eager = Vector.newBuilder[Int]
      var go = true
      while (go) {
        val afford = remaining.filter(e => cost(e) <= budget - spent + 1e-9)
        val best = afford.toSeq.sortBy(e => (-values(e) / cost(e), e)).headOption
        best match {
          case Some(e) if values(e) > 1e-9 =>
            eager += e; spent += cost(e); remaining -= e
          case _ => go = false
        }
      }
      assert(celf.toSet == eager.result().toSet, s"seed=$seed")
    }
  }

  test("on a coverage function, CELF achieves the greedy solution") {
    // elements cover user sets; f = |covered|
    val cover = Map(1 -> Set(1, 2, 3), 2 -> Set(3, 4), 3 -> Set(1, 2))
    val f: Set[Int] => Double = s => s.flatMap(cover).size.toDouble
    val sel = Celf.select[Int](Vector(1, 2, 3), Map(1 -> 1.0, 2 -> 1.0, 3 -> 1.0), 2.0, f)
    assert(sel.head == 1)
    assert(sel == Vector(1, 2), "element 3 adds nothing after 1")
  }

  test("breaks an exact key tie by pool order") {
    val values = Map(1 -> 2.0, 2 -> 2.0, 3 -> 2.0, 4 -> 2.0, 5 -> 2.0)
    val cost = Map(1 -> 1.0, 2 -> 1.0, 3 -> 1.0, 4 -> 1.0, 5 -> 1.0)
    val pool = Vector(4, 2, 5, 1, 3)
    assert(Celf.select[Int](pool, cost, budget = 5, additive(values)) == pool)
    val exact = (a: Int) => values(a)
    assert(Celf.select[Int](pool, cost, budget = 5, additive(values), bound = exact) == pool)
    // the last element's loose bound materializes it first; at equal keys
    // the bound entries still go before it, so the pool order holds
    val loose = (a: Int) => if (a == 3) 3.0 else values(a)
    assert(Celf.select[Int](pool, cost, budget = 5, additive(values), bound = loose) == pool)
  }

  test("fails when an exact singleton exceeds its bound") {
    val values = Map(1 -> 5.0, 2 -> 3.0)
    val cost = Map(1 -> 1.0, 2 -> 1.0)
    val e = intercept[IllegalArgumentException](
      Celf.select[Int](Vector(1, 2), cost, budget = 2, additive(values), bound = Map(1 -> 4.0, 2 -> 3.0)))
    assert(e.getMessage.contains("f({1}) = 5.0 exceeds its bound 4.0"))
  }

  /** A random set function that is neither submodular nor monotone: each
    * set gets its own draw, scaled by its size.
    */
  private def scrambled(seed: Long): Set[Int] => Double =
    s => new Random(seed * 7919 + s.toSeq.sorted.hashCode).nextDouble() * 4 * s.size

  test("exact, slack and infinite bounds pick the same sequence (randomized property)") {
    var singles = 0
    var poolTotal = 0
    for (seed <- 1L to 80L) {
      val rnd = new Random(seed)
      val n = 3 + rnd.nextInt(10)
      val f =
        if (seed % 2 == 0) additive((0 until n).map(i => i -> rnd.nextDouble() * 10).toMap)
        else scrambled(seed)
      val cost = (0 until n).map(i => i -> (0.5 + rnd.nextDouble() * 3)).toMap
      val budget = 1.0 + rnd.nextDouble() * 6
      val useRatio = rnd.nextBoolean()
      val pool = rnd.shuffle((0 until n).toVector)
      val exact = (a: Int) => f(Set(a))
      val slack = pool.map(a => a -> (exact(a) + rnd.nextDouble() * rnd.nextInt(3))).toMap
      def run(bound: Int => Double, single: Int => Double = exact) =
        Celf.select[Int](pool, cost, budget, f, useRatio, bound, single)
      val eager = run(_ => Double.PositiveInfinity)
      var evaluated = 0
      val withExact = run(exact, a => { evaluated += 1; exact(a) })
      assert(withExact == eager, s"seed=$seed, exact bounds")
      assert(run(slack) == eager, s"seed=$seed, slack bounds")
      singles += evaluated
      poolTotal += n
    }
    info(s"exact bounds: $singles singletons evaluated for $poolTotal pool elements")
    assert(singles < poolTotal)
  }

  test("the first pick reuses its singleton: no set is evaluated twice") {
    val values = Map(1 -> 4.0, 2 -> 3.0, 3 -> 2.0, 4 -> 1.0)
    val cost = Map(1 -> 1.0, 2 -> 1.0, 3 -> 1.0, 4 -> 1.0)
    for (bound <- Seq[Int => Double](_ => Double.PositiveInfinity, values)) {
      val calls = scala.collection.mutable.ArrayBuffer.empty[Set[Int]]
      val f = (set: Set[Int]) => { calls += set; additive(values)(set) }
      assert(Celf.select[Int](Vector(4, 3, 2, 1), cost, budget = 2, f, bound = bound) == Vector(1, 2))
      assert(calls.distinct.size == calls.size, calls.mkString(" "))
      // +∞ bounds: four singletons, then f({1, 2}) for the second pick
      if (bound(1).isInfinite) assert(calls.size == 5, calls.mkString(" "))
    }
  }

  test("exact bounds evaluate fewer singletons than the pool size") {
    val values = (0 until 20).map(i => i -> (1.0 + i)).toMap
    val cost = (0 until 20).map(i => i -> 1.0).toMap
    var evaluated = 0
    val sel = Celf.select[Int]((0 until 20).toVector, cost, budget = 3, additive(values),
      bound = values, single = a => { evaluated += 1; values(a) })
    assert(sel == Vector(19, 18, 17))
    assert(evaluated < 20, s"$evaluated singletons")
  }
}
