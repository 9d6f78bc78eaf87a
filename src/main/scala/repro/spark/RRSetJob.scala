package repro.spark

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.{Costs, RRSets, SimScratch}
import repro.graphs.LocalGraph

/** The shared influence-evaluation oracle of the paper's §5.2 as a Spark
  * job: a large, seeded collection of RR sets is generated once per
  * influence graph and reused for every influence evaluation of every
  * algorithm run, so identical seed sets always get identical estimates.
  *
  * Membership is a DataFrame (rr_id, vertex); influence evaluation is a
  * join + distinct-count dataflow (a seed set S intersects an RR set with
  * probability Inf(S)/n, so Inf(S) ≈ n · |covered| / θ).
  */
final class RRSetJob(spark: SparkSession, val g: LocalGraph, val theta: Long,
                     seed: Long) {
  // RR-set ids and the stamp array of influenceOfSets are Ints.
  require(theta <= Int.MaxValue, s"theta = $theta does not fit in an Int")

  import spark.implicits._

  /** RR-set membership (rr_id, vertex), cached for repeated evaluation. */
  val membership: DataFrame = {
    val bc = spark.sparkContext.broadcast(g)
    val slices = spark.sparkContext.defaultParallelism * 2
    val baseSeed = seed // local copy: the closure must not capture `this`
    spark.sparkContext
      .range(0L, theta, numSlices = slices)
      .mapPartitionsWithIndex { (pi, it) =>
        val graph = bc.value
        val rng = new SplittableRandom(TrialRunner.mixSeed(baseSeed, pi.toLong))
        val scratch = new SimScratch(graph.n)
        val costs = new Costs
        it.flatMap { rrId =>
          RRSets.generate(graph, rng, scratch, costs).iterator
            .map(v => (rrId, v))
        }
      }
      .toDF("rr_id", "vertex")
      .persist(StorageLevel.MEMORY_AND_DISK)
  }

  /** Forces materialisation; returns the stored vertex count θ·EPT-hat. */
  def materialize(): Long = membership.count()

  /** Estimated Inf(v) for every vertex (vertices in no RR set get 0) —
    * the per-vertex estimator behind the paper's Table 4.
    */
  def perVertexInfluence(): DataFrame = {
    val counts = membership.groupBy("vertex").agg(count("*") as "cnt")
    val allV = spark.range(0, g.n.toLong).select(col("id").cast("int") as "vertex")
    allV.join(counts, Seq("vertex"), "left")
      .select(col("vertex"),
              (coalesce(col("cnt"), lit(0L)) * g.n.toDouble / theta) as "influence")
  }

  /** Estimated influence of each seed set in `seedSets` (set_key, vertex).
    * Sets covering no RR set get estimate 0.
    */
  def influenceOf(seedSets: DataFrame): DataFrame = {
    val covered = seedSets
      .join(membership, Seq("vertex"))
      .select("set_key", "rr_id").distinct()
      .groupBy("set_key").agg(count("*") as "cnt")
    seedSets.select("set_key").distinct()
      .join(covered, Seq("set_key"), "left")
      .select(col("set_key"),
              (coalesce(col("cnt"), lit(0L)) * g.n.toDouble / theta) as "influence")
  }

  /** Inverted index vertex → RR-set ids in CSR form, collected once.
    * Enables linear-time coverage counting; the join formulation of
    * [[influenceOf]] produces |S|·θ·EPT/n intermediate rows per seed set
    * and melts down when sweeps evaluate thousands of sets.
    */
  lazy val invertedIndex: (Array[Int], Array[Int]) = {
    val pairs = membership
      .select(col("vertex"), col("rr_id").cast("int"))
      .as[(Int, Int)].collect()
    val offsets = new Array[Int](g.n + 1)
    pairs.foreach { case (v, _) => offsets(v + 1) += 1 }
    var i = 0
    while (i < g.n) { offsets(i + 1) += offsets(i); i += 1 }
    val ids = new Array[Int](pairs.length)
    val pos = offsets.clone()
    pairs.foreach { case (v, id) => ids(pos(v)) = id; pos(v) += 1 }
    (offsets, ids)
  }

  /** Influence of explicit seed sets via the shared oracle, returned as a
    * map from the canonical sorted-id key to the estimate. Distributes the
    * seed sets as a Spark job with the inverted index broadcast; each task
    * counts covered RR sets with a stamp array (no shuffle, no blow-up).
    */
  def influenceOfSets(sets: Seq[Seq[Int]]): Map[String, Double] = {
    if (sets.isEmpty) return Map.empty
    val distinct = sets.map(_.sorted).distinct
    val bcIndex = spark.sparkContext.broadcast(invertedIndex)
    val n = g.n
    val th = theta
    val slices = math.max(1, math.min(distinct.size,
      spark.sparkContext.defaultParallelism * 2))
    val results = spark.sparkContext
      .parallelize(distinct, slices)
      .mapPartitions { it =>
        val (offsets, ids) = bcIndex.value
        val stamp = new Array[Int](th.toInt)
        var cur = 0
        it.map { s =>
          cur += 1
          var covered = 0L
          s.foreach { v =>
            var i = offsets(v)
            while (i < offsets(v + 1)) {
              val id = ids(i)
              if (stamp(id) != cur) { stamp(id) = cur; covered += 1 }
              i += 1
            }
          }
          (s.mkString(","), covered * n.toDouble / th)
        }
      }
      .collect()
    bcIndex.destroy()
    results.toMap
  }

  def unpersist(): Unit = { membership.unpersist(); () }
}

object RRSetJob {
  /** Builds and materialises an oracle. */
  def apply(spark: SparkSession, g: LocalGraph, theta: Long, seed: Long): RRSetJob = {
    val job = new RRSetJob(spark, g, theta, seed)
    job.materialize()
    job
  }
}
