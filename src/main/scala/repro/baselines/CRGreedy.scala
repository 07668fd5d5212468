package repro.baselines

import repro.core.{Nominee, ProblemInstance, Seed}
import repro.diffusion.LocalDiffusion

/** CR-Greedy [5] round assignment, used to extend the single-promotion
  * baselines to T promotions (Sec. VI-A): for each selected user-item pair
  * in selection order, evaluate the marginal dynamic influence of placing
  * it at every round t ∈ [1, T] given the pairs already scheduled, and
  * keep the best round.
  *
  * The candidate at round t shares rounds 1..t−1 with the scheduled
  * campaign, so it is forked from that campaign's state at the start of
  * round t ([[LocalDiffusion.resume]], exact). An accepted pair's states
  * for the rounds after its own replace the scheduled campaign's.
  */
object CRGreedy {

  def schedule(inst: ProblemInstance, pairs: Seq[Nominee]): Vector[Seed] = {
    val scheduled = scala.collection.mutable.ArrayBuffer.empty[Seed]
    // the scheduled campaign's state at the start of round t, at index t - 1
    val base = LocalDiffusion.resume(LocalDiffusion.start(inst), Nil)._2.toArray
    var sigmaSoFar = 0.0
    pairs.foreach { n =>
      var bestT = 1
      var bestSigma = Double.NegativeInfinity
      var bestStates = Vector.empty[LocalDiffusion.RoundState]
      var t = 1
      while (t <= inst.T) {
        val (res, states) =
          LocalDiffusion.resume(base(t - 1), (scheduled :+ Seed(n.user, n.item, t)).toSeq)
        val sig = LocalDiffusion.sigmaOf(inst, res)
        if (sig > bestSigma + 1e-12) { bestSigma = sig; bestT = t; bestStates = states }
        t += 1
      }
      if (bestSigma > sigmaSoFar - 1e-12) {
        scheduled += Seed(n.user, n.item, bestT)
        sigmaSoFar = bestSigma
        bestStates.foreach(st => base(st.t - 1) = st)
      }
    }
    scheduled.toVector
  }
}
