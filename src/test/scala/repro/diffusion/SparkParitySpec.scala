package repro.diffusion

import repro.TestInstances
import repro.core.{Params, Seed}

/** Five hand-picked campaigns, each run through [[LocalDiffusion]] and
  * [[repro.ReferenceDiffusion]] under [[ReferenceCheck]]'s bounds. They
  * first checked a Spark DataFrame engine against `LocalDiffusion`; that
  * engine is gone, and the suite and test names are kept so their history
  * reads on. Instances, seeds and step caps are unchanged. No Spark runs.
  */
class SparkParitySpec extends ReferenceCheck {

  test("parity on the 3-user line (full dynamics)") {
    checkOne(TestInstances.line3.withParams(Params(maxSteps = 3)).withT(2), Seq(Seed(0, 0, 1)), "line3")
  }

  test("parity with multi-round seeds and complements") {
    checkOne(TestInstances.line3.withParams(Params(maxSteps = 3)).withT(2), Seq(Seed(0, 0, 1), Seed(0, 1, 2)), "line3")
  }

  test("parity with frozen dynamics") {
    checkOne(TestInstances.line3.withParams(Params().frozen.copy(maxSteps = 3)).withT(1), Seq(Seed(0, 0, 1)), "line3")
  }

  test("parity on a random instance with substitutes (seeded trials)") {
    val inst = TestInstances.random(1L, nUsers = 10, nItems = 4, nEdges = 24)
    checkOne(inst.withParams(inst.params.copy(maxSteps = 3)), Seq(Seed(0, 0, 1), Seed(1, 1, 2)), "random(1)")
  }

  test("parity with converging multi-step propagation") {
    // a hub pushing to 4 users, then a second tier
    val inst = TestInstances.mk(
      nUsers = 7, nItems = 3,
      edges = Seq((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 6)),
      metaS = Vector(
        TestInstances.sym(3)((0, 1, 0.9), (1, 2, 0.4)),
        TestInstances.sym(3)((0, 2, 0.7))),
      t = 2,
      params = Params(maxSteps = 3))
    checkOne(inst, Seq(Seed(0, 0, 1), Seed(0, 2, 2)), "hub")
  }
}
