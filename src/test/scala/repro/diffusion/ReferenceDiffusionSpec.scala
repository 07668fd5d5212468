package repro.diffusion

import org.scalatest.funsuite.AnyFunSuite
import repro.{ReferenceDiffusion, TestInstances}
import repro.core.{Params, ProblemInstance, Seed}
import scala.util.Random

/** [[LocalDiffusion]] against [[repro.ReferenceDiffusion]], the dense
  * transcription of DESIGN.md Sec. 4. The engine reorders sums and skips
  * zero terms, so the two agree to rounding: step counts must be equal,
  * every `a` and `w` value within [[ReferenceCheck.Tol]] absolute,
  * and σ and π within `Tol` relative. Each test reports its largest
  * differences. A reordered sum or product moves only bits below `Tol`,
  * so these suites do not see one.
  */
abstract class ReferenceCheck extends AnyFunSuite {
  import ReferenceCheck._

  /** Largest differences over the campaigns of one test. */
  protected final class Diffs {
    var a, w, sigma, pi = 0.0
    var campaigns = 0
    def report(): Unit =
      info(f"$campaigns campaign(s); largest differences: a $a%.2e, w $w%.2e (absolute), sigma $sigma%.2e, pi $pi%.2e (relative)")
  }

  private def relDiff(x: Double, y: Double): Double =
    if (x == y) 0.0 else math.abs(x - y) / math.max(math.abs(x), math.abs(y))

  protected def check(inst: ProblemInstance, seeds: Seq[Seed], mask: Option[Array[Boolean]], d: Diffs, clue: String): Unit = {
    val local = LocalDiffusion.run(inst, seeds, mask)
    val ref = ReferenceDiffusion.run(inst, seeds, mask)
    val at = s"$clue seeds=${seeds.mkString(",")}"
    assert(local.steps == ref.steps, s"$at: steps local=${local.steps} reference=${ref.steps}")
    for (v <- 0 until inst.nUsers) {
      for (x <- 0 until inst.nItems) {
        val da = math.abs(local.a(v)(x) - ref.a(v)(x))
        assert(da <= Tol, s"$at: a($v)($x) local=${local.a(v)(x)} reference=${ref.a(v)(x)}")
        d.a = math.max(d.a, da)
      }
      for (m <- 0 until inst.nMeta) {
        val dw = math.abs(local.w(v)(m) - ref.w(v)(m))
        assert(dw <= Tol, s"$at: w($v)($m) local=${local.w(v)(m)} reference=${ref.w(v)(m)}")
        d.w = math.max(d.w, dw)
      }
    }
    val (sL, sR) = (LocalDiffusion.sigmaOf(inst, local, mask), ReferenceDiffusion.sigma(inst, ref, mask))
    assert(relDiff(sL, sR) <= Tol, s"$at: sigma local=$sL reference=$sR")
    val (pL, pR) = (LocalDiffusion.pi(inst, local, mask), ReferenceDiffusion.pi(inst, ref, mask))
    assert(relDiff(pL, pR) <= Tol, s"$at: pi local=$pL reference=$pR")
    d.sigma = math.max(d.sigma, relDiff(sL, sR))
    d.pi = math.max(d.pi, relDiff(pL, pR))
    d.campaigns += 1
  }

  /** One campaign, unmasked, reported on its own. */
  protected def checkOne(inst: ProblemInstance, seeds: Seq[Seed], clue: String): Unit = {
    val d = new Diffs
    check(inst, seeds, None, d, clue)
    d.report()
  }
}

object ReferenceCheck {

  /** Bound on every absolute (`a`, `w`) and relative (σ, π) difference. */
  val Tol: Double = 1e-12
}

/** The check over seeded random campaigns; [[SparkParitySpec]] holds the
  * five hand-picked ones. */
class ReferenceDiffusionSpec extends ReferenceCheck {

  test("LocalDiffusion matches the reference on 40 random instances x T 1-4 x 3 parameter sets x 2 masks") {
    val d = new Diffs
    for (seed <- 1L to 40L) {
      val base = TestInstances.random(seed, nUsers = 20, nItems = 6, nEdges = 60)
      val paramSets = Seq("maxSteps=4" -> base.params, "frozen" -> base.params.frozen, "default" -> Params())
      for (t <- 1 to 4; (pName, params) <- paramSets; masked <- Seq(false, true)) {
        val inst = base.withParams(params).withT(t)
        val mask = if (masked) Some(Array.tabulate(inst.nUsers)(v => (v + seed) % 2 == 0)) else None
        val rnd = new Random(seed * 10 + t)
        val seeds = Seq.fill(1 + rnd.nextInt(4))(Seed(rnd.nextInt(inst.nUsers), rnd.nextInt(inst.nItems), 1 + rnd.nextInt(t)))
        check(inst, seeds, mask, d, s"instance=$seed T=$t $pName ${if (masked) "half" else "all"}")
      }
    }
    d.report()
  }
}
