package perfbench

import java.util.SplittableRandom
import repro.core.{Costs, Greedy, GreedyResult, Ic, InfluenceEstimator, RRSets, SimScratch}
import repro.graphs.LocalGraph
import repro.spark.{Alg, TrialRunner}

/** Times the three procedures of the estimator it wraps. `Alg` is sealed,
  * so this decorator can only be used in the serial replay, not inside
  * TrialRunner's tasks.
  */
final class TimedEstimator(inner: InfluenceEstimator) extends InfluenceEstimator {
  var buildNs = 0L
  var estimateNs = 0L
  var updateNs = 0L
  var estimateCalls = 0L

  override def build(rng: SplittableRandom): Unit = {
    val t = System.nanoTime(); inner.build(rng); buildNs += System.nanoTime() - t
  }

  override def estimate(v: Int, rng: SplittableRandom): Double = {
    val t = System.nanoTime(); val e = inner.estimate(v, rng)
    estimateNs += System.nanoTime() - t; estimateCalls += 1
    e
  }

  override def update(v: Int, rng: SplittableRandom): Unit = {
    val t = System.nanoTime(); inner.update(v, rng); updateNs += System.nanoTime() - t
  }

  override def costs: Costs = inner.costs
  override def sampleSize: Long = inner.sampleSize
}

/** Per-algorithm totals over the trials replayed serially. */
final class ReplayTotals {
  var trials = 0
  var greedyNs = 0L
  var buildNs = 0L
  var estimateNs = 0L
  var updateNs = 0L
  var estimateCalls = 0L
  var edges = 0L
  var sampleSize = 0L

  def perTrialS(ns: Long): Double = if (trials == 0) 0.0 else ns / 1e9 / trials
  def selfNs: Long = greedyNs - buildNs - estimateNs - updateNs
}

/** Single-threaded replays of the library's kernels, for per-layer self
  * times and for checking that TrialRunner's tasks are reproducible.
  */
object Replay {

  /** Re-runs trial `t` of a `TrialRunner.run(g, alg, s, k, _, baseSeed)`
    * job on the calling thread, with the same PRNG stream as its task.
    */
  def trial(g: LocalGraph, alg: Alg, s: Int, k: Int, baseSeed: Long, t: Int,
            into: ReplayTotals): GreedyResult = {
    val est = new TimedEstimator(alg.make(g, s))
    val rng = new SplittableRandom(TrialRunner.mixSeed(baseSeed, t.toLong))
    val t0 = System.nanoTime()
    val r = Greedy.run(g.n, k, est, rng)
    into.greedyNs += System.nanoTime() - t0
    into.trials += 1
    into.buildNs += est.buildNs
    into.estimateNs += est.estimateNs
    into.updateNs += est.updateNs
    into.estimateCalls += est.estimateCalls
    into.edges += r.edgeCost
    into.sampleSize += r.sampleSize
    r
  }

  /** Base seed `Sweep.run` gives the TrialRunner job of one grid point. */
  def sweepPointSeed(sweepSeed: Long, alg: Alg, s: Long): Long =
    TrialRunner.mixSeed(sweepSeed, (alg.name.hashCode.toLong << 32) ^ s)

  /** Serial loop of `count` RR sets; returns (costs, seconds). */
  def rrSets(g: LocalGraph, count: Int, seed: Long): (Costs, Double) = {
    val rng = new SplittableRandom(seed)
    val scratch = new SimScratch(g.n)
    val costs = new Costs
    val t0 = System.nanoTime()
    var i = 0
    while (i < count) { RRSets.generate(g, rng, scratch, costs); i += 1 }
    (costs, (System.nanoTime() - t0) / 1e9)
  }

  /** Serial loop of `count` IC simulations from uniformly random single
    * seeds; returns (costs, seconds).
    */
  def icSimulations(g: LocalGraph, count: Int, seed: Long): (Costs, Double) = {
    val rng = new SplittableRandom(seed)
    val scratch = new SimScratch(g.n)
    val costs = new Costs
    val one = new Array[Int](1)
    val t0 = System.nanoTime()
    var i = 0
    while (i < count) {
      one(0) = rng.nextInt(g.n)
      Ic.simulate(g, one, rng, scratch, costs)
      i += 1
    }
    (costs, (System.nanoTime() - t0) / 1e9)
  }
}
