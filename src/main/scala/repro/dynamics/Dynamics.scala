package repro.dynamics

import repro.core.ProblemInstance

/** The closed-form factor model of DESIGN.md Sec. 4 — the four dynamic
  * factors of the paper (relevance measurement, preference estimation,
  * influence learning, item associations) as pure functions.
  *
  * Both diffusion engines ([[repro.diffusion.LocalDiffusion]] and
  * [[repro.diffusion.SparkDiffusion]]) implement exactly these formulas;
  * the parity test suite keeps them one system.
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
    * relationship class. With η = 0 (frozen params) this returns the
    * uniform initial weights.
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

  /** Personal relevance r^C(u,x,y) = Σ_{m∈C} W(u,m)·s(x,y|m). */
  def rC(inst: ProblemInstance, w: Array[Double], x: Int, y: Int): Double = {
    var r = 0.0
    inst.cMeta.foreach(m => r += w(m) * inst.metaS(m)(x)(y))
    r
  }

  /** Personal relevance r^S(u,x,y) = Σ_{m∈S} W(u,m)·s(x,y|m). */
  def rS(inst: ProblemInstance, w: Array[Double], x: Int, y: Int): Double = {
    var r = 0.0
    inst.sMeta.foreach(m => r += w(m) * inst.metaS(m)(x)(y))
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
    math.min(1.0, math.max(0.0, basePref + inst.params.beta * contrib))

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
    math.min(ActCap, base + inst.params.gamma * similarity)
}
