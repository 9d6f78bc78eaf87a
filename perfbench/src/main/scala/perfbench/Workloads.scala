package perfbench

import java.util.SplittableRandom
import org.apache.spark.sql.functions.{col, desc}
import repro.analysis.{ComparableRatio, InfluenceStats, SeedSetStats}
import repro.exp.{Instances, NetworkSpec, Sweep}
import repro.graphs.{LocalGraph, ProbModel}
import repro.spark.{Alg, RRSetJob, TrialRow, TrialRunner}
import scala.collection.mutable

/** End-to-end numbers of one run. The first four exist on every workload;
  * `named` holds the workload's own end-to-end numbers.
  */
final case class Outcome(setupS: Double, wallS: Double, workPerS: Double,
                         peakHeapMb: Double, named: Seq[Metric])

trait Workload {
  def name: String
  def run(ctx: Ctx, sessionS: Double): Outcome
}

object Workload {
  val all: Seq[Workload] = Seq(SweepSmall, OracleLarge, TrialsLarge)

  /** Generates a registry network and assigns IWC probabilities; returns
    * the influence graph and the seconds this took.
    */
  def influenceGraph(ctx: Ctx, spec: NetworkSpec): (LocalGraph, Double) = {
    val t0 = System.nanoTime()
    val bare = ctx.span("graphs.GraphGen")(spec.build())
    val g = ctx.span("graphs.ProbModel.assign")(ProbModel.assign(bare, ProbModel.IWC))
    (g, (System.nanoTime() - t0) / 1e9)
  }

  /** End-to-end rounds after two untimed warm-up rounds: JIT compilation
    * and Spark's lazy set-up take that long to settle, and a round timed
    * earlier is measurably slower. A traced run alternates untraced and
    * traced rounds, so the difference of their median walls is the
    * tracing overhead. Returns the untraced rounds, the traced rounds and
    * all of them.
    */
  def measure[A](ctx: Ctx, min: Int)(body: Int => A)(after: A => Unit)
      : (Seq[Round[A]], Seq[Round[A]], Harness.Rounds[A]) = {
    Seq(-2, -1).foreach(i => after(body(i)))
    val rounds = Harness.rounds(ctx, ctx.seconds, if (ctx.trace) math.max(min, 4) else min)(body)(after)
    val (traced, plain) = rounds.all.partition(_.traced)
    if (ctx.trace) {
      ctx.tracer.enabled = true
      ctx.tracer.addJobs(Harness.jobsIn(ctx.jobs, traced))
      val L = ctx.layers
      L("trace.overhead_s") = Stats.median(traced.map(_.wallS)) - Stats.median(plain.map(_.wallS))
      L("jvm.gc_s") = rounds.gcS / rounds.all.size
      L("jvm.heap_after_gc_mb") = rounds.heapAfterGcMb
      Harness.sparkLayers(ctx, traced)
    }
    (plain, traced, rounds)
  }

  def validSeedSet(seeds: Seq[Int], k: Int, n: Int): Boolean =
    seeds.size == k && seeds.distinct.size == k && seeds.forall(v => v >= 0 && v < n)

  /** Σ p(1−p) over the edges: the variance of one snapshot's live-edge count. */
  def liveEdgeVariance(g: LocalGraph): Double = g.outProb.map(p => p * (1 - p)).sum

  /** Core-layer numbers of the serial Ic.simulate and RRSets.generate loops. */
  def kernelLoops(ctx: Ctx, g: LocalGraph, count: Int): Unit = {
    val (ic, icS) = ctx.span("core.Ic.simulate")(Replay.icSimulations(g, count, ctx.seedFor(7)))
    val (rr, rrS) = ctx.span("core.RRSets.generate")(Replay.rrSets(g, count, ctx.seedFor(8)))
    val L = ctx.layers
    L("core.Ic.edge_visits") = ic.edge.toDouble
    L("core.Ic.edges_per_s") = ic.edge / icS
    L("core.RRSets.sets_per_s") = count / rrS
    L("core.RRSets.vertices") = rr.vertex.toDouble
    L("core.RRSets.edge_visits") = rr.edge.toDouble
  }

  /** Core-layer numbers of the serial replay, per replayed trial. */
  def replayLayers(ctx: Ctx, totals: Map[Alg, ReplayTotals]): Unit = {
    val L = ctx.layers
    val all = totals.values
    val trials = math.max(1, all.map(_.trials).sum)
    L("core.Greedy.estimate_calls") = all.map(_.estimateCalls).sum.toDouble / trials
    L("core.Greedy.self_s") = all.map(_.selfNs).sum / 1e9 / trials
    totals.get(Alg.OneshotAlg).foreach { t =>
      L("core.Oneshot.estimate_s") = t.perTrialS(t.estimateNs)
    }
    totals.get(Alg.SnapshotAlg).foreach { t =>
      L("core.Snapshot.build_s") = t.perTrialS(t.buildNs)
      L("core.Snapshot.estimate_s") = t.perTrialS(t.estimateNs)
      L("core.Snapshot.update_s") = t.perTrialS(t.updateNs)
      L("core.Snapshot.edge_visits") = t.edges.toDouble / t.trials
      L("core.Snapshot.live_edges") = t.sampleSize.toDouble / t.trials
    }
    totals.get(Alg.RisAlg).foreach { t =>
      L("core.Ris.build_s") = t.perTrialS(t.buildNs)
      L("core.Ris.update_s") = t.perTrialS(t.updateNs)
    }
  }
}

/** A researcher's sweep on a graph that fits in cache: all three
  * algorithms over powers-of-two grids, T trials per point, every seed set
  * evaluated by the shared oracle, then the paper's distribution summaries.
  * Oneshot's Ic kernel, Greedy's estimate loop and Spark's fixed cost per
  * small TrialRunner job dominate; the oracle does little work.
  */
object SweepSmall extends Workload {
  val name = "sweep-small"

  private val K = 4
  private val OracleTheta = 300000L
  private val Trials = 120
  // Grid caps keep one sweep at a few seconds; see README.md.
  private val OneshotMax = 1L << 2
  private val SnapshotMax = 1L << 6
  private val RisMax = 1L << 10
  private val ReplayTrials = 4

  private def config(baseSeed: Long): Sweep.Config =
    Sweep.Config(trials = Trials, oneshotMax = OneshotMax, snapshotMax = SnapshotMax,
                 risMax = RisMax, baseSeed = baseSeed)

  /** Grid points in the order `Sweep.run` submits their TrialRunner jobs. */
  private val Grid: Seq[(Alg, Long)] =
    Sweep.powersOfTwo(OneshotMax).map(Alg.OneshotAlg -> _) ++
      Sweep.powersOfTwo(SnapshotMax).map(Alg.SnapshotAlg -> _) ++
      Sweep.powersOfTwo(RisMax).map(Alg.RisAlg -> _)

  private final case class Out(cfg: Sweep.Config, result: Sweep.Result, summary: Double)

  /** The summaries a researcher draws from a sweep: per-point influence
    * statistics, Table 5's least sample numbers and Tables 6–7's ratios.
    */
  private def analyse(r: Sweep.Result): Double = {
    var acc = 0.0
    Alg.all.foreach { a =>
      val curve = r.curve(a)
      curve.foreach(p => acc += InfluenceStats.summarize(p.influences).p50)
      acc += InfluenceStats.leastSampleNumber(curve.map(p => p.sampleNumber -> p.influences),
                                              r.referenceInfluence).getOrElse(0L).toDouble
    }
    val snap = r.ratioCurve(Alg.SnapshotAlg)
    acc += ComparableRatio.numberRatios(snap, r.ratioCurve(Alg.OneshotAlg)).sum
    acc += ComparableRatio.sizeRatios(snap, r.ratioCurve(Alg.RisAlg)).sum
    acc
  }

  def run(ctx: Ctx, sessionS: Double): Outcome = {
    val genS = mutable.ArrayBuffer.empty[Double]
    val ((g, oracle), dataS) = Harness.setup(ctx, 3) { _ =>
      val (g, s) = Workload.influenceGraph(ctx, Instances.baS)
      genS += s
      val o = new RRSetJob(ctx.spark, g, OracleTheta, ctx.seedFor(1))
      ctx.span("spark.RRSetJob.materialize")(o.materialize())
      ctx.span("spark.RRSetJob.invertedIndex")(o.invertedIndex)
      (g, o)
    }(_._2.membership.unpersist(blocking = true))
    val mTilde = g.mTilde
    val liveVar = Workload.liveEdgeVariance(g)
    val tally = ctx.tally

    val (plain, traced, rounds) = Workload.measure(ctx, 3) { i =>
      val cfg = config(ctx.seedFor(100L + i))
      val res = ctx.span("exp.Sweep.run")(Sweep.run(ctx.spark, g, oracle, K, cfg))
      Out(cfg, res, ctx.span("analysis.summary")(analyse(res)))
    } { out =>
      val pts = out.result.points
      tally.check("sweep has one point per grid point")(pts.size == Grid.size)
      tally.check("influences lie in [0, n]")(pts.forall(_.influences.forall(x => x >= 0 && x <= g.n)))
      pts.filter(_.alg == Alg.RisAlg.name).foreach { p =>
        tally.check(s"RIS vertex cost equals sample size at θ=${p.sampleNumber}")(
          p.meanVertexCost == p.meanSampleSize)
      }
      pts.filter(_.alg == Alg.SnapshotAlg.name).foreach { p =>
        val s = p.sampleNumber
        val se = math.sqrt(s * liveVar / Trials)
        tally.check(s"Snapshot live edges near τ·m̃ at τ=$s")(
          math.abs(p.meanSampleSize - s * mTilde) <= 5 * se + 1e-6)
      }
    }

    // Per-algorithm throughput: Sweep.run submits one TrialRunner job per
    // grid point, in grid order.
    val jobs = ctx.jobs
    val perAlg = mutable.Map.empty[Alg, (Double, Double)].withDefaultValue((0.0, 0.0))
    plain.foreach { r =>
      val rj = Harness.jobsIn(jobs, Seq(r)).filter(_.layer == "spark.TrialRunner")
      if (rj.size == Grid.size) rj.zip(Grid).foreach { case (j, (a, _)) =>
        val (n, s) = perAlg(a)
        perAlg(a) = (n + Trials, s + j.wallMs / 1000.0)
      }
    }
    def rate(a: Alg): Double = { val (n, s) = perAlg(a); if (s > 0) n / s else Double.NaN }

    val last = rounds.all.last.out
    val replay = Alg.all.map(_ -> new ReplayTotals).toMap
    val replayN = if (ctx.trace) ReplayTrials else 1
    val replayed = mutable.ArrayBuffer.empty[(Alg, Seq[Int], Double)]
    Alg.all.foreach { a =>
      val p = last.result.curve(a).last
      val pointSeed = Replay.sweepPointSeed(last.cfg.baseSeed, a, p.sampleNumber)
      (0 until replayN).foreach { t =>
        val r = ctx.span("core.Greedy.run")(
          Replay.trial(g, a, p.sampleNumber.toInt, K, pointSeed, t, replay(a)))
        replayed += ((a, r.seeds.sorted.toSeq, p.influences(t)))
      }
    }
    val refSet = ctx.span("exp.Sweep.referenceSeedSet")(
      Sweep.referenceSeedSet(g, K, last.cfg.refTheta, last.cfg.baseSeed + 777))
    tally.check("reference seed set is reproducible")(refSet.mkString(",") == last.result.referenceKey)
    tally.check("reference seed set has k distinct vertices")(Workload.validSeedSet(refSet, K, g.n))
    val setsToCheck = (replayed.map(_._2).toSeq :+ refSet).distinct
    val viaIndex = oracle.influenceOfSets(setsToCheck)
    replayed.foreach { case (a, seeds, inf) =>
      tally.check(s"${a.name} replay yields a valid seed set")(Workload.validSeedSet(seeds, K, g.n))
      tally.check(s"${a.name} serial replay reproduces the trial's seed set")(
        viaIndex(seeds.mkString(",")) == inf)
    }
    val viaJoin = joinInfluence(ctx, oracle, setsToCheck)
    tally.check("influenceOfSets equals the influenceOf join")(
      setsToCheck.forall(s => viaJoin.get(s.mkString(",")).contains(viaIndex(s.mkString(",")))))

    if (ctx.trace) {
      val n = traced.size.toDouble
      val L = ctx.layers
      L("exp.Sweep.self_s") = ctx.tracer.totalSelf("exp.Sweep.run") / n
      L("analysis.summary_s") = ctx.tracer.total("analysis.summary") / n
      L("exp.Sweep.reference_s") = ctx.tracer.total("exp.Sweep.referenceSeedSet")
      val keys = replayed.groupBy(_._1).values.map(_.map(_._2.mkString(",")).toSeq)
      L("analysis.entropy_s") = ctx.span("analysis.SeedSetStats") {
        val t0 = System.nanoTime(); keys.foreach(SeedSetStats.entropyOfKeys); (System.nanoTime() - t0) / 1e9
      }
      // Replayed points' job walls in the last traced round.
      val lastRound = traced.last
      val rj = Harness.jobsIn(ctx.jobs, Seq(lastRound)).filter(_.layer == "spark.TrialRunner")
      if (rj.size == Grid.size) {
        val lastOfAlg = Alg.all.map(a => Grid.lastIndexWhere(_._1 == a))
        val serial = Alg.all.map(a => replay(a).perTrialS(replay(a).greedyNs) * Trials).sum
        val wall = lastOfAlg.map(i => rj(i).wallMs / 1000.0).sum
        L("spark.TrialRunner.parallel_eff") = serial / (ctx.cores * wall)
      }
      Workload.replayLayers(ctx, replay)
      Workload.kernelLoops(ctx, g, 200000)
    }
    ctx.layers("graphs.gen_s") = Stats.median(genS.toSeq)
    ctx.layers("graphs.csr_bytes") = Harness.csrBytes(g)
    oracle.unpersist()

    val wallS = Stats.median(plain.map(_.wallS))
    Outcome(
      setupS = sessionS + dataS,
      wallS = wallS,
      workPerS = Grid.size * Trials / wallS,
      peakHeapMb = rounds.peakHeapMb,
      named = Seq(
        Metric("oneshot_trials_per_s", rate(Alg.OneshotAlg), "1/s"),
        Metric("snapshot_trials_per_s", rate(Alg.SnapshotAlg), "1/s"),
        Metric("ris_trials_per_s", rate(Alg.RisAlg), "1/s"),
        Metric("mean_inf_ratio", Stats.mean(plain.map { r =>
          val infs = r.out.result.points.flatMap(_.influences)
          infs.sum / infs.size / r.out.result.referenceInfluence
        }), "ratio"),
      ))
  }

  /** Influence of `sets` through `RRSetJob.influenceOf`, the join path. */
  private[perfbench] def joinInfluence(ctx: Ctx, oracle: RRSetJob,
                                       sets: Seq[Seq[Int]]): Map[String, Double] = {
    import ctx.spark.implicits._
    val df = sets.flatMap(s => s.map(v => (s.mkString(","), v))).toDF("set_key", "vertex")
    ctx.span("spark.RRSetJob.influenceOf")(oracle.influenceOf(df).as[(String, Double)].collect()).toMap
  }
}

/** The shared oracle on a graph larger than the caches: build (generate
  * and persist the RR sets, collect the inverted index, Table 4's top-3),
  * then one client's closed loop of seed-set batches through
  * `influenceOfSets`. RRSetJob and RRSets do nearly all the work; a change
  * that moves cost between the build and the queries shows in `wall_s`.
  */
object OracleLarge extends Workload {
  val name = "oracle-large"

  private val Theta = 100000L
  private val Batches = 20
  private val BatchSets = 50
  private val MaxSetSize = 64

  private final case class Out(oracle: RRSetJob, rows: Long, materializeS: Double,
                               indexS: Double, perVertexS: Double, top: Seq[(Int, Double)],
                               latenciesMs: Seq[Double],
                               results: Seq[(Seq[Seq[Int]], Map[String, Double])])

  /** One batch of seed sets of 1–64 distinct vertices. */
  private def batch(n: Int, seed: Long): Seq[Seq[Int]] = {
    val rng = new SplittableRandom(seed)
    Seq.fill(BatchSets) {
      val size = 1 + rng.nextInt(MaxSetSize)
      val s = mutable.LinkedHashSet.empty[Int]
      while (s.size < size) s += rng.nextInt(n)
      s.toSeq
    }
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = body; (a, (System.nanoTime() - t0) / 1e9)
  }

  private def round(ctx: Ctx, g: LocalGraph, i: Int): Out = {
    // The first warm-up round runs the same code at a tenth of the size:
    // a cold full-size round takes 15 s.
    val (theta, batches) = if (i == -2) (Theta / 10, 5) else (Theta, Batches)
    val o = new RRSetJob(ctx.spark, g, theta, ctx.seedFor(300L + i))
    val (rows, matS) = timed(ctx.span("spark.RRSetJob.materialize")(o.materialize()))
    val (_, idxS) = timed(ctx.span("spark.RRSetJob.invertedIndex")(o.invertedIndex))
    val (top, pvS) = timed(ctx.span("spark.RRSetJob.perVertexInfluence")(
      o.perVertexInfluence().orderBy(desc("influence"), col("vertex")).limit(3)
        .collect().map(r => (r.getInt(0), r.getDouble(1))).toSeq))
    val results = (0 until batches).map { b =>
      val sets = batch(g.n, ctx.seedFor(1000000L * (i + 1) + b))
      val (res, s) = timed(ctx.span("spark.RRSetJob.influenceOfSets")(o.influenceOfSets(sets)))
      (sets, res, s * 1000)
    }
    Console.err.println(f"[perfbench] oracle $i: materialize $matS%.3f s, index $idxS%.3f s, " +
      f"top-3 $pvS%.3f s, $batches batches ${results.map(_._3).sum / 1000}%.3f s")
    Out(o, rows, matS, idxS, pvS, top, results.map(_._3), results.map(r => (r._1, r._2)))
  }

  def run(ctx: Ctx, sessionS: Double): Outcome = {
    val genS = mutable.ArrayBuffer.empty[Double]
    val (g, dataS) = Harness.setup(ctx, 3) { _ =>
      val (g, s) = Workload.influenceGraph(ctx, Instances.pokec); genS += s; g
    }(_ => ())
    val tally = ctx.tally

    var joinChecked = false
    val (plain, traced, rounds) = Workload.measure(ctx, 3)(round(ctx, g, _)) { out =>
      val (offsets, ids) = out.oracle.invertedIndex
      tally.check("index holds every membership row")(ids.length.toLong == out.rows)
      tally.check("top-3 influence equals the index count")(out.top.size == 3 && out.top.forall {
        case (v, inf) => inf == (offsets(v + 1) - offsets(v)).toLong * g.n.toDouble / out.oracle.theta
      })
      out.results.foreach { case (sets, res) =>
        tally.check("one estimate per distinct seed set, within [0, n]")(
          res.size == sets.map(_.sorted).distinct.size && res.values.forall(x => x >= 0 && x <= g.n))
      }
      if (!joinChecked) {
        joinChecked = true
        val (sets, res) = out.results.head
        val sample = sets.take(4).map(_.sorted)
        val viaJoin = SweepSmall.joinInfluence(ctx, out.oracle, sample)
        tally.check("influenceOfSets equals the influenceOf join")(
          sample.forall(s => viaJoin.get(s.mkString(",")) == res.get(s.mkString(","))))
      }
      // Blocking, so block removal does not run into the next round.
      out.oracle.membership.unpersist(blocking = true)
    }

    if (ctx.trace) {
      val n = traced.size.toDouble
      val L = ctx.layers
      L("spark.RRSetJob.materialize_s") = traced.map(_.out.materializeS).sum / n
      L("spark.RRSetJob.index_s") = traced.map(_.out.indexS).sum / n
      L("spark.RRSetJob.per_vertex_s") = traced.map(_.out.perVertexS).sum / n
      L("spark.RRSetJob.eval_s") = traced.map(_.out.latenciesMs.sum / 1000).sum / n
      val rows = traced.map(_.out.rows.toDouble).sum / n
      L("spark.RRSetJob.membership_rows") = rows
      L("spark.RRSetJob.index_bytes") = 4.0 * (g.n + 1) + 4.0 * rows
      Workload.kernelLoops(ctx, g, 50000)
    }
    ctx.layers("graphs.gen_s") = Stats.median(genS.toSeq)
    ctx.layers("graphs.csr_bytes") = Harness.csrBytes(g)

    val lat = plain.flatMap(_.out.latenciesMs)
    val setsPerS = BatchSets / (Stats.median(lat) / 1000)
    Outcome(
      setupS = sessionS + dataS,
      wallS = Stats.median(plain.map(_.wallS)),
      workPerS = setsPerS,
      peakHeapMb = rounds.peakHeapMb,
      named = Seq(
        Metric("oracle_build_s", Stats.median(plain.map(r => r.out.materializeS + r.out.indexS)), "s"),
        Metric("rr_sets_per_s", Theta / Stats.median(plain.map(_.out.materializeS)), "1/s"),
        Metric("eval_sets_per_s", setsPerS, "1/s"),
        Metric("eval_batch_p50_ms", Stats.median(lat), "ms"),
        Metric("eval_batch_p90_ms", Stats.percentile(lat, 0.9), "ms"),
        Metric("eval_batches", lat.size.toDouble, "count"),
      ))
  }
}

/** The ★ setting on the large graph: a few heavy TrialRunner tasks per
  * job, Snapshot then RIS. Snapshot's reach BFS, Greedy's argmax over 20k
  * vertices and stragglers (12 trials in 8 slices on 4 cores) dominate;
  * there is no Oneshot and no oracle.
  */
object TrialsLarge extends Workload {
  val name = "trials-large"

  private val K = 4
  private val Tau = 1 << 3
  private val Theta = 1 << 14
  private val Trials = 12
  private val ReplayTrials = 2

  private final case class Out(baseSeed: Long, rows: Map[Alg, Seq[TrialRow]], wallS: Map[Alg, Double])

  private val algs: Seq[(Alg, Int)] = Seq(Alg.SnapshotAlg -> Tau, Alg.RisAlg -> Theta)

  private def round(ctx: Ctx, g: LocalGraph, baseSeed: Long): Out = {
    val res = algs.map { case (a, s) =>
      val t0 = System.nanoTime()
      val rows = ctx.span("spark.TrialRunner.runCollect")(
        TrialRunner.runCollect(ctx.spark, g, a, s, K, Trials, baseSeed))
      (a, rows, (System.nanoTime() - t0) / 1e9)
    }
    Out(baseSeed, res.map(r => r._1 -> r._2).toMap, res.map(r => r._1 -> r._3).toMap)
  }

  def run(ctx: Ctx, sessionS: Double): Outcome = {
    val genS = mutable.ArrayBuffer.empty[Double]
    val (g, dataS) = Harness.setup(ctx, 3) { _ =>
      val (g, s) = Workload.influenceGraph(ctx, Instances.pokec); genS += s; g
    }(_ => ())
    val mTilde = g.mTilde
    val liveSd = math.sqrt(Tau * Workload.liveEdgeVariance(g))
    val tally = ctx.tally

    val (plain, traced, rounds) = Workload.measure(ctx, 3)(i => round(ctx, g, ctx.seedFor(100L + i))) { out =>
      out.rows.foreach { case (a, rows) =>
        tally.check(s"${a.name} returns one row per trial")(rows.map(_.trial).sorted == (0 until Trials))
        rows.foreach { r =>
          tally.check(s"${a.name} seed set has k distinct vertices in [0, n)")(
            Workload.validSeedSet(r.seed_set, K, g.n))
        }
      }
      out.rows(Alg.RisAlg).foreach { r =>
        tally.check("RIS vertex cost equals its sample size")(r.vertex_cost == r.sample_size)
      }
      out.rows(Alg.SnapshotAlg).foreach { r =>
        tally.check("Snapshot live edges within 5σ of τ·m̃")(
          math.abs(r.sample_size - Tau * mTilde) <= 5 * liveSd + 1)
      }
    }

    val last = rounds.all.last.out
    val replay = algs.map(_._1 -> new ReplayTotals).toMap
    val replayN = if (ctx.trace) ReplayTrials else 1
    algs.foreach { case (a, s) =>
      val rows = last.rows(a).sortBy(_.trial)
      (0 until replayN).foreach { t =>
        val r = ctx.span("core.Greedy.run")(Replay.trial(g, a, s, K, last.baseSeed, t, replay(a)))
        tally.check(s"${a.name} serial replay reproduces the trial's seed set")(
          r.seeds.sorted.toSeq == rows(t).seed_set)
      }
    }

    if (ctx.trace) {
      val serial = algs.map { case (a, _) => replay(a).perTrialS(replay(a).greedyNs) * Trials }.sum
      val wall = algs.map { case (a, _) => Stats.mean(traced.map(_.out.wallS(a))) }.sum
      ctx.layers("spark.TrialRunner.parallel_eff") = serial / (ctx.cores * wall)
      Workload.replayLayers(ctx, replay)
      Workload.kernelLoops(ctx, g, 50000)
    }
    ctx.layers("graphs.gen_s") = Stats.median(genS.toSeq)
    ctx.layers("graphs.csr_bytes") = Harness.csrBytes(g)

    def rate(a: Alg): Double = Trials / Stats.median(plain.map(_.out.wallS(a)))
    Outcome(
      setupS = sessionS + dataS,
      wallS = Stats.median(plain.map(_.wallS)),
      workPerS = algs.size * Trials / Stats.median(plain.map(_.wallS)),
      peakHeapMb = rounds.peakHeapMb,
      named = Seq(
        Metric("snapshot_trials_per_s", rate(Alg.SnapshotAlg), "1/s"),
        Metric("ris_trials_per_s", rate(Alg.RisAlg), "1/s"),
      ))
  }
}
