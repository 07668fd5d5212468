package repro.data

import scala.util.hashing.MurmurHash3

/** Deterministic per-(user, item) quantities of the synthetic instances:
  * base preferences, seeding costs, and item importance. All are pure
  * functions of ids + a seed so the Spark and local sides agree exactly.
  */
object CostModel {

  /** Uniform [0,1) from a hashed triple (stable across JVMs). */
  def u01(a: Int, b: Int, seed: Long): Double = {
    val h = MurmurHash3.caseClassHash((a, b, seed))
    (h & 0x7fffffff).toDouble / (Int.MaxValue.toDouble + 1.0)
  }

  /** Base preference in [0.05, 0.6] — low enough that dynamics matter. */
  def basePref(u: Int, x: Int, seed: Long): Double = 0.05 + 0.55 * u01(u, x, seed)

  /** Seeding cost per [3], [49]: proportional to the user's out-degree
    * (more influential users need more incentive) and inversely related to
    * the preference (users who prefer the item less need more incentive).
    */
  def cost(outDeg: Int, basePref: Double, costScale: Double): Double =
    costScale * (1.0 + outDeg) * (1.5 - basePref)

  /** Price-like importance (log-normal-ish via sum of uniforms), mean ≈ 1,
    * clipped to [0.2, 3.0] — Douban/Yelp/Amazon "distributed following the
    * prices on their websites".
    */
  def priceImportance(x: Int, seed: Long): Double = {
    val z = (0 until 4).map(i => u01(x, i, seed)).sum - 2.0 // approx N(0, 1/sqrt(3))
    math.min(3.0, math.max(0.2, math.exp(0.6 * z)))
  }

  /** Uniform-random importance in [0.2, 3.0] — Gowalla ("randomly assigned
    * since its website is no longer online").
    */
  def uniformImportance(x: Int, seed: Long): Double = 0.2 + 2.8 * u01(x, 777, seed)
}
