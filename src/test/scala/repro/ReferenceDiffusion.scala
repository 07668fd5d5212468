package repro

import repro.core.{ProblemInstance, Seed}
import repro.diffusion.DiffusionResult
import repro.dynamics.Dynamics

/** Test oracle for [[repro.diffusion.LocalDiffusion]]: a dense, literal
  * transcription of the campaign process of DESIGN.md Sec. 4.
  *
  * Each step computes every receiver's deltas from last step's state and
  * only then applies them all. Every factor is evaluated on the dense
  * matrices (`metaS`, whole adoption rows) at every rate, zero or not:
  * there are no skipped terms, sparse lists or cached weightings. It
  * shares only [[DiffusionResult]] and the constants `Dynamics.W0` and
  * `Dynamics.ActCap` with the engine. The terms are summed in the order
  * the formulas are written, so it agrees with the engine to rounding,
  * not bit for bit.
  */
object ReferenceDiffusion {

  /** The campaign `seeds` over rounds 1..T, restricted to `mask`'s users. */
  def run(inst: ProblemInstance, seeds: Seq[Seed], mask: Option[Array[Boolean]] = None): DiffusionResult = {
    val p = inst.params
    val (n, nI) = (inst.nUsers, inst.nItems)
    def active(v: Int): Boolean = mask.forall(_(v))
    val a = Array.fill(n, nI)(0.0)
    val w = Array.fill(n)(Array.tabulate(inst.nMeta)(m => 1.0 / classOf(inst, m).size))
    // applies user v's raw deltas, capped at 1 − a, and returns them
    def apply(v: Int, raw: Array[Double]): Array[Double] = {
      val d = Array.tabulate(nI)(x => math.max(0.0, math.min(raw(x), 1.0 - a(v)(x))))
      for (x <- 0 until nI) a(v)(x) += d(x)
      if (d.exists(_ > 0.0)) w(v) = weights(inst, a(v))
      d
    }
    var steps = 0
    for (t <- 1 to inst.T) {
      // ζ_t = 0: the round's seeds adopt
      for ((v, vs) <- seeds.filter(_.t == t).groupBy(_.user) if active(v)) {
        val raw = new Array[Double](nI)
        vs.foreach(s => raw(s.item) = 1.0 - a(v)(s.item))
        apply(v, raw)
      }
      // every active adopter re-promotes its whole adoption mass
      var delta = Array.tabulate(n)(u => if (active(u)) a(u).clone() else new Array[Double](nI))
      var moving = delta.exists(_.exists(_ > 0.0))
      var step = 0
      while (moving && step < p.maxSteps) {
        step += 1
        steps += 1
        val raw = Array.tabulate(n) { v =>
          val r = new Array[Double](nI)
          if (active(v)) {
            val notProm = Array.fill(nI)(1.0)
            for (i <- inst.inNbr(v).indices; u = inst.inNbr(v)(i) if active(u)) {
              val pAct = act(inst, inst.inAct(v)(i), a(u), a(v))
              for (x <- 0 until nI) notProm(x) *= 1.0 - delta(u)(x) * pAct
            }
            for (x <- 0 until nI) {
              val q = 1.0 - notProm(x)
              val qPref = q * pref(inst, w(v), a(v), v, x)
              r(x) += (1.0 - a(v)(x)) * qPref
              // item associations, the promotion's mass capped at q·P_pref·extraScale
              val rowSum = (0 until nI).map(y => rel(inst, inst.cMeta, w(v), x, y)).sum
              for (y <- 0 until nI)
                r(y) += (1.0 - a(v)(y)) * qPref * p.extraScale * math.min(1.0, 1.0 / rowSum) *
                  rel(inst, inst.cMeta, w(v), x, y)
            }
          }
          r
        }
        delta = Array.tabulate(n)(v => apply(v, raw(v)))
        moving = delta.exists(_.exists(_ > p.eps))
      }
    }
    DiffusionResult(a, w, steps)
  }

  /** σ (Def. 1): Σ_v Σ_x importance(x)·a(v,x) over the users in `countMask`. */
  def sigma(inst: ProblemInstance, res: DiffusionResult, countMask: Option[Array[Boolean]] = None): Double =
    (0 until inst.nUsers).filter(v => countMask.forall(_(v)))
      .map(v => (0 until inst.nItems).map(x => inst.importance(x) * res.a(v)(x)).sum).sum

  /** π (Eq. 7): Σ_v Σ_y (1 − a(v,y))·AIS(v,y)·P_pref(v,y) over the users in
    * `countMask`, with AIS(v,y) = 1 − Π_{u ∈ N^in(v)} (1 − a(u,y)·P_act(u,v)).
    */
  def pi(inst: ProblemInstance, res: DiffusionResult, countMask: Option[Array[Boolean]] = None): Double =
    (0 until inst.nUsers).filter(v => countMask.forall(_(v))).map { v =>
      val acts = inst.inNbr(v).indices.map(i => act(inst, inst.inAct(v)(i), res.a(inst.inNbr(v)(i)), res.a(v)))
      (0 until inst.nItems).map { y =>
        val ais = 1.0 - inst.inNbr(v).indices.map(i => 1.0 - res.a(inst.inNbr(v)(i))(y) * acts(i)).product
        (1.0 - res.a(v)(y)) * ais * pref(inst, res.w(v), res.a(v), v, y)
      }.sum
    }.sum

  private def classOf(inst: ProblemInstance, m: Int): Vector[Int] =
    if (inst.cMeta.contains(m)) inst.cMeta else inst.sMeta

  /** W(u,m) ∝ W0 + η·Σ_{x<y} a_x·a_y·s(x,y|m), normalized within m's class. */
  private def weights(inst: ProblemInstance, av: Array[Double]): Array[Double] = {
    val raw = Array.tabulate(inst.nMeta) { m =>
      val e = (for (x <- 0 until inst.nItems; y <- x + 1 until inst.nItems) yield av(x) * av(y) * inst.metaS(m)(x)(y)).sum
      Dynamics.W0 + inst.params.eta * e
    }
    Array.tabulate(inst.nMeta)(m => raw(m) / classOf(inst, m).map(raw).sum)
  }

  /** r^K(u,x,y) = Σ_{m∈K} W(u,m)·s(x,y|m). */
  private def rel(inst: ProblemInstance, metas: Vector[Int], w: Array[Double], x: Int, y: Int): Double =
    metas.map(m => w(m) * inst.metaS(m)(x)(y)).sum

  /** P_pref(v,y) = clamp01(basePref(v,y) + β·Σ_x a_v[x]·(r^C(v,x,y) − r^S(v,x,y))). */
  private def pref(inst: ProblemInstance, w: Array[Double], av: Array[Double], v: Int, y: Int): Double = {
    val contrib = (0 until inst.nItems).map(x => av(x) * (rel(inst, inst.cMeta, w, x, y) - rel(inst, inst.sMeta, w, x, y))).sum
    math.min(1.0, math.max(0.0, inst.basePref(v)(y) + inst.params.beta * contrib))
  }

  /** P_act(u,v) = min(ActCap, baseAct + γ·sim), sim the expected Jaccard of a_u and a_v. */
  private def act(inst: ProblemInstance, base: Double, au: Array[Double], av: Array[Double]): Double = {
    val dot = au.indices.map(x => au(x) * av(x)).sum
    val denom = au.sum + av.sum - dot + 1e-9
    math.min(Dynamics.ActCap, base + inst.params.gamma * (if (denom <= 0.0) 0.0 else dot / denom))
  }
}
