package perfbench

import scala.collection.mutable

/** A fixed reference computation, timed between the selection runs, that
  * gauges how fast the host runs this thread at the time: on a shared
  * 4-vCPU KVM guest (Xeon, Sapphire Rapids) the same code took 40-50% longer
  * whenever other tenants loaded the physical core. It is the benchmark's
  * own code and never changes with the program, so dividing the program's
  * time by it removes the host's speed and keeps the program's.
  *
  * The work resembles the diffusion kernels': propagation over the in-edges
  * of a sparse random graph in double arrays, with boxed tuples collected in
  * a buffer on the way. One run takes about 25 ms.
  */
final class Calib {
  import Calib.{Degree, Nodes, Rounds}
  private val rnd = new scala.util.Random(20240601L)
  private val inNbr = Array.fill(Nodes)(Array.fill(Degree)(rnd.nextInt(Nodes)))
  private val weight = Array.fill(Nodes)(Array.fill(Degree)(rnd.nextDouble() / Degree))
  private val times = mutable.ArrayBuffer.empty[Double]
  private var sink = 0.0 // keeps the JIT compiler from dropping work()'s result

  /** One run of the reference work; returns a checksum. */
  def work(): Double = {
    var x = Array.tabulate(Nodes)(i => (i % 7) / 7.0)
    val hot = mutable.ArrayBuffer.empty[(Int, Double)]
    var r = 0
    while (r < Rounds) {
      val y = new Array[Double](Nodes)
      var v = 0
      while (v < Nodes) {
        val nb = inNbr(v)
        val w = weight(v)
        var acc = 0.0
        var i = 0
        while (i < nb.length) { acc += w(i) * x(nb(i)); i += 1 }
        y(v) = 0.5 * x(v) + acc
        if (y(v) > 0.4) hot += ((v, y(v)))
        v += 1
      }
      x = y
      r += 1
    }
    x.sum + hot.size
  }

  /** Times one run of [[work]] as this thread's CPU time and records it. */
  def slice(): Double = {
    val t0 = Calib.threadMx.getCurrentThreadCpuTime
    sink += work()
    val s = (Calib.threadMx.getCurrentThreadCpuTime - t0) / 1e9
    times += s
    s
  }

  def samples: Seq[Double] = times.toSeq
}

object Calib {
  private val Nodes = 4000
  private val Degree = 8
  private val Rounds = 300

  /** Untimed runs of the reference work before the first timed one (JIT warm-up). */
  val WarmSlices = 5

  private val threadMx = java.lang.management.ManagementFactory.getThreadMXBean
}
