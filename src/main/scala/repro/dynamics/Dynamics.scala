package repro.dynamics

import repro.core.{MetaNbrs, ProblemInstance}

/** The closed-form factor model of DESIGN.md Sec. 4 — the four dynamic
  * factors of the paper (relevance measurement, preference estimation,
  * influence learning, item associations) as pure functions.
  *
  * The diffusion engine [[repro.diffusion.LocalDiffusion]] evaluates the
  * factors through these functions; `ReferenceDiffusionSpec` checks it
  * against a dense transcription of the same formulas in the test sources.
  */
object Dynamics {

  /** Prior mass on each meta-graph weighting (only η/W0 matters: DESIGN.md Sec. 4). */
  val W0: Double = 1.0
  /** Hard cap on the dynamic P_act (keeps 1 - p > 0 for log-space products). */
  val ActCap: Double = 0.9

  /** Initial per-user weightings: uniform within the complementary class
    * and within the substitutable class (so each class sums to 1).
    */
  def initUserWeights(inst: ProblemInstance): Array[Double] = {
    val w = new Array[Double](inst.nMeta)
    if (inst.cMeta.nonEmpty) inst.cMeta.foreach(m => w(m) = 1.0 / inst.cMeta.size)
    if (inst.sMeta.nonEmpty) inst.sMeta.foreach(m => w(m) = 1.0 / inst.sMeta.size)
    w
  }

  /** Evidence for meta-graph m from a user's (expected) adoption vector:
    * e(u,m) = Σ_{x<y} a_x · a_y · s(x,y|m).
    */
  def evidence(inst: ProblemInstance, a: Array[Double], m: Int): Double = {
    val pairs = inst.metaPairs(m)
    val xs = pairs.x
    val ys = pairs.y
    val ss = pairs.s
    var e = 0.0
    var i = 0
    while (i < ss.length) {
      e += a(xs(i)) * a(ys(i)) * ss(i)
      i += 1
    }
    e
  }

  /** Updated weightings: W(u,m) ∝ w0 + η·e(u,m), normalized within each
    * relationship class. With η = 0 (frozen params) every class member gets
    * W0/(|class|·W0) = 1.0/|class|, the bits of [[initUserWeights]] (W0 = 1,
    * and a class sum of |class| ones is exact), so the diffusion engine
    * leaves the weightings alone under η = 0.
    */
  def updateUserWeights(inst: ProblemInstance, a: Array[Double], out: Array[Double]): Unit = {
    normalizeClass(inst, inst.cMeta, a, out)
    normalizeClass(inst, inst.sMeta, a, out)
  }

  private def normalizeClass(inst: ProblemInstance, metas: Vector[Int], a: Array[Double], out: Array[Double]): Unit = {
    val p = inst.params
    var sum = 0.0
    var k = 0
    while (k < metas.length) {
      val m = metas(k)
      out(m) = W0 + p.eta * evidence(inst, a, m)
      sum += out(m)
      k += 1
    }
    if (sum > 0.0) {
      k = 0
      while (k < metas.length) { out(metas(k)) /= sum; k += 1 }
    }
  }

  /** The association cap min(1, 1/Σ_y r^C(u,x,y)) of promoted item x, with
    * the row sum Σ_{c∈C} w_c·R_c(x) taken over the static row sums
    * [[repro.core.MetaNbrs.rowSum]] of `cNbrs` (the C meta-graphs `cMeta`,
    * in that order). Only the w_c > 0 terms are added: a +0 term does not
    * change a non-negative sum.
    */
  def assocCap(w: Array[Double], cMeta: Array[Int], cNbrs: Array[MetaNbrs], x: Int): Double = {
    var rowSum = 0.0
    var c = 0
    while (c < cMeta.length) {
      val wc = w(cMeta(c))
      if (wc > 0.0) rowSum += wc * cNbrs(c).rowSum(x)
      c += 1
    }
    if (rowSum > 1.0) 1.0 / rowSum else 1.0
  }

  /** Personal relevance r^C(u,x,y) = Σ_{m∈C} W(u,m)·s(x,y|m). */
  def rC(inst: ProblemInstance, w: Array[Double], x: Int, y: Int): Double = rel(inst, inst.cMeta, w, x, y)

  /** Personal relevance r^S(u,x,y) = Σ_{m∈S} W(u,m)·s(x,y|m). */
  def rS(inst: ProblemInstance, w: Array[Double], x: Int, y: Int): Double = rel(inst, inst.sMeta, w, x, y)

  private def rel(inst: ProblemInstance, metas: Vector[Int], w: Array[Double], x: Int, y: Int): Double = {
    var r = 0.0
    var k = 0
    while (k < metas.length) {
      val m = metas(k)
      r += w(m) * inst.metaS(m)(x)(y)
      k += 1
    }
    r
  }

  /** Cross-elasticity contribution per item:
    * contrib(y) = Σ_x a_x · (r^C(u,x,y) − r^S(u,x,y))
    *            = Σ_m sign(m) · W(u,m) · (S_m · a)(y),
    * computed over the sparse pair lists.
    */
  def prefContrib(inst: ProblemInstance, w: Array[Double], a: Array[Double]): Array[Double] = {
    val contrib = new Array[Double](inst.nItems)
    var m = 0
    while (m < inst.nMeta) {
      val wm = w(m) * inst.metaKinds(m).sign
      if (wm != 0.0) {
        val pairs = inst.metaPairs(m)
        val xs = pairs.x
        val ys = pairs.y
        val ss = pairs.s
        var i = 0
        while (i < ss.length) {
          val x = xs(i)
          val y = ys(i)
          contrib(y) += wm * a(x) * ss(i)
          contrib(x) += wm * a(y) * ss(i)
          i += 1
        }
      }
      m += 1
    }
    contrib
  }

  /** Dynamic preference P_pref(u,y) = clamp01(basePref + β·contrib(y)). */
  def pref(inst: ProblemInstance, basePref: Double, contrib: Double): Double =
    clamp01(basePref + inst.params.beta * contrib)

  /** `v` clamped to [0, 1]: the bits of `math.min(1.0, math.max(0.0, v))`
    * for every double (NaN passes through, −0.0 becomes +0.0) without the
    * library calls' NaN and signed-zero branches.
    */
  private[dynamics] def clamp01(v: Double): Double = if (v <= 0.0) 0.0 else if (v >= 1.0) 1.0 else v

  /** Expected-Jaccard similarity of two adoption vectors:
    * sim = ⟨a_u, a_v⟩ / (‖a_u‖₁ + ‖a_v‖₁ − ⟨a_u, a_v⟩ + ε).
    */
  def sim(aU: Array[Double], aV: Array[Double], sumU: Double, sumV: Double): Double = {
    var dot = 0.0
    var i = 0
    while (i < aU.length) { dot += aU(i) * aV(i); i += 1 }
    jaccard(dot, sumU, sumV)
  }

  /** [[sim]] with the dot product summed only over `support(0 until len)`,
    * the ascending indices at which `aU` (or `aV`) is non-zero. Bit-identical
    * to [[sim]] on non-negative vectors: every skipped term is `+0.0`, and the
    * kept terms are added in the same ascending order.
    */
  def sparseSim(support: Array[Int], len: Int, aU: Array[Double], aV: Array[Double], sumU: Double, sumV: Double): Double = {
    var dot = 0.0
    var k = 0
    while (k < len) { val i = support(k); dot += aU(i) * aV(i); k += 1 }
    jaccard(dot, sumU, sumV)
  }

  private def jaccard(dot: Double, sumU: Double, sumV: Double): Double = {
    val denom = sumU + sumV - dot + 1e-9
    if (denom <= 0.0) 0.0 else dot / denom
  }

  /** Dynamic influence strength P_act(u,v) = min(ActCap, base + γ·sim). */
  def act(inst: ProblemInstance, base: Double, similarity: Double): Double =
    capAct(base + inst.params.gamma * similarity)

  /** The bits of `math.min(ActCap, v)` for every double (NaN and −0.0 pass
    * through).
    */
  private[dynamics] def capAct(v: Double): Double = if (v >= ActCap) ActCap else v
}
