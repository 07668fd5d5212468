package perfbench

/** Order statistics used to summarize repeated timings. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Quartiles (Q1, Q2, Q3) by the same rule as Python's
    * `statistics.quantiles(xs, n=4)` (the default 'exclusive' method), so a
    * spread computed here matches one computed over the printed results.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    val s = xs.sorted.toVector
    val ld = s.length
    if (ld == 1) return (s(0), s(0), s(0))
    val n = 4
    val m = ld + 1
    val q = (1 until n).map { i =>
      val j = math.min(ld - 1, math.max(1, i * m / n))
      val delta = i * m - j * n
      (s(j - 1) * (n - delta) + s(j) * delta) / n
    }
    (q(0), q(1), q(2))
  }

  /** The highest percentile of `ladder` that has at least ten samples
    * beyond it, as (percentile, value); None when there are too few samples
    * for any (fewer than 20).
    */
  def tailPercentile(xs: Seq[Double], ladder: Seq[Double] = Seq(99.9, 99.0, 90.0, 50.0)): Option[(Double, Double)] = {
    val s = xs.sorted.toVector
    ladder.find(p => s.length * (1.0 - p / 100.0) >= 10.0 - 1e-9).map { p =>
      // nearest-rank percentile
      val rank = math.max(1, math.ceil(p / 100.0 * s.length).toInt)
      (p, s(rank - 1))
    }
  }
}
