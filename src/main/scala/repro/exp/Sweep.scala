package repro.exp

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.analysis.{ComparableRatio, SeedSetStats}
import repro.core.{Greedy, Ris}
import repro.graphs.LocalGraph
import repro.spark.{Alg, RRSetJob, TrialRunner}

/** The central experimental machinery of the paper's §4: run an algorithm T
  * times for every sample number on a powers-of-two grid, evaluate every
  * obtained seed set with the shared RR-set oracle, and summarise the
  * resulting seed-set and influence distributions. Tables 5, 6, 7 and 9 are
  * all derived from sweeps.
  */
object Sweep {

  /** Summary of one (algorithm, sample number) grid point over T trials. */
  final case class Point(
      alg: String,
      sampleNumber: Long,
      entropy: Double,
      influences: Seq[Double],
      meanInfluence: Double,
      meanSampleSize: Double,
      meanVertexCost: Double,
      meanEdgeCost: Double,
  ) {
    def toRatioPoint: ComparableRatio.Point =
      ComparableRatio.Point(sampleNumber, meanInfluence, meanSampleSize)
  }

  /** Full sweep over the three algorithms on one instance. */
  final case class Result(
      points: Seq[Point],
      referenceKey: String,
      referenceInfluence: Double,
  ) {
    def curve(alg: Alg): Seq[Point] =
      points.filter(_.alg == alg.name).sortBy(_.sampleNumber)
    def ratioCurve(alg: Alg): Seq[ComparableRatio.Point] =
      curve(alg).map(_.toRatioPoint)
  }

  /** Per-algorithm sample-number grids plus trial count. A grid maximum of
    * 0 disables the algorithm on this instance (the paper's "-" cells for
    * runs that "took over weeks").
    */
  final case class Config(
      trials: Int,
      oneshotMax: Long,
      snapshotMax: Long,
      risMax: Long,
      risMin: Long = 1L,
      refTheta: Long = 1L << 17,
      baseSeed: Long = 20200614L,
  )

  /** 1, 2, 4, …, max (inclusive if max is a power of two). */
  def powersOfTwo(max: Long, min: Long = 1L): Seq[Long] =
    Iterator.iterate(1L)(_ * 2).takeWhile(_ <= max).filter(_ >= min).toSeq

  /** The reproduction's stand-in for the paper's "Exact Greedy" limit
    * object: one deterministic greedy run on a very large RR-set collection
    * (`refTheta`). Returns the canonical seed-set key.
    */
  def referenceSeedSet(g: LocalGraph, k: Int, refTheta: Long, seed: Long): Seq[Int] = {
    require(refTheta <= Int.MaxValue, s"refTheta = $refTheta does not fit in an Int")
    val est = new Ris(g, refTheta.toInt)
    val rng = new SplittableRandom(seed)
    Greedy.run(g.n, k, est, rng).seeds.sorted.toSeq
  }

  /** Runs the full sweep for seed size `k` on influence graph `g`, using
    * `oracle` (built on the same graph) for influence evaluation.
    */
  def run(spark: SparkSession, g: LocalGraph, oracle: RRSetJob, k: Int,
          cfg: Config): Result = {
    require(oracle.g.n == g.n && oracle.g.m == g.m,
            "oracle must be built on the same influence graph")
    // Grid points and refTheta become Int sample numbers; check them before
    // the first job.
    for (max <- Seq(cfg.oneshotMax, cfg.snapshotMax, cfg.risMax, cfg.refTheta))
      require(max <= Int.MaxValue, s"sample number $max does not fit in an Int: $cfg")
    val grids: Seq[(Alg, Seq[Long])] = Seq(
      Alg.OneshotAlg -> powersOfTwo(cfg.oneshotMax),
      Alg.SnapshotAlg -> powersOfTwo(cfg.snapshotMax),
      Alg.RisAlg -> powersOfTwo(cfg.risMax, cfg.risMin),
    )
    val raw = for {
      (alg, grid) <- grids
      s <- grid
    } yield {
      val pointSeed = TrialRunner.mixSeed(cfg.baseSeed,
        (alg.name.hashCode.toLong << 32) ^ s)
      val rows = TrialRunner.runCollect(spark, g, alg, s.toInt, k, cfg.trials, pointSeed)
      (alg, s, rows)
    }
    val refSet = referenceSeedSet(g, k, cfg.refTheta, cfg.baseSeed + 777)
    val refKey = refSet.mkString(",")
    val allSets: Seq[Seq[Int]] =
      (raw.flatMap(_._3.map(_.seed_set)) :+ refSet).distinct
    val infByKey = oracle.influenceOfSets(allSets)
    val points = raw.map { case (alg, s, rows) =>
      val keys = rows.map(_.seed_key)
      val infs = keys.map(infByKey)
      Point(
        alg = alg.name,
        sampleNumber = s,
        entropy = SeedSetStats.entropyOfKeys(keys),
        influences = infs,
        meanInfluence = infs.sum / infs.size,
        meanSampleSize = rows.map(_.sample_size.toDouble).sum / rows.size,
        meanVertexCost = rows.map(_.vertex_cost.toDouble).sum / rows.size,
        meanEdgeCost = rows.map(_.edge_cost.toDouble).sum / rows.size,
      )
    }
    Result(points, refKey, infByKey(refKey))
  }
}
