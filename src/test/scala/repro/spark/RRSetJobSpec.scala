package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.ExactInfluence
import repro.graphs.{GraphGen, LocalGraph, ProbModel}

class RRSetJobSpec extends SparkSpec {

  private lazy val tiny = LocalGraph.fromWeightedEdges(4,
    Seq((0, 1, 0.4), (1, 2, 0.7), (0, 3, 0.2), (3, 2, 0.9)))
  private lazy val tinyOracle = RRSetJob(spark, tiny, theta = 150000, seed = 1)

  test("membership has schema (rr_id, vertex) and covers all rr ids") {
    val df = tinyOracle.membership
    assert(df.columns.toSeq == Seq("rr_id", "vertex"))
    assert(df.select("rr_id").distinct().count() == 150000L)
  }

  test("every RR set contains at least its target (non-empty)") {
    val sizes = tinyOracle.membership.groupBy("rr_id").agg(count("*") as "c")
    assert(sizes.where(col("c") < 1).count() == 0)
  }

  test("per-vertex influence estimates match exact influence") {
    val rows = tinyOracle.perVertexInfluence().collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    (0 until tiny.n).foreach { v =>
      val exact = ExactInfluence.influence(tiny, Seq(v))
      assert(math.abs(rows(v) - exact) < 0.08, s"v=$v got=${rows(v)} exact=$exact")
    }
  }

  test("influenceOfSets matches exact influence for seed sets") {
    val sets = Seq(Seq(0), Seq(0, 2), Seq(1, 3), Seq(0, 1, 2, 3))
    val got = tinyOracle.influenceOfSets(sets)
    sets.foreach { s =>
      val exact = ExactInfluence.influence(tiny, s)
      val est = got(s.sorted.mkString(","))
      assert(math.abs(est - exact) < 0.1, s"S=$s got=$est exact=$exact")
    }
  }

  test("influenceOfSets (index kernel) agrees with influenceOf (SQL join)") {
    import spark.implicits._
    val small = new RRSetJob(spark, tiny, 3000, seed = 9)
    val sets = Seq(Seq(0), Seq(1, 2), Seq(0, 3), Seq(2))
    val fast = small.influenceOfSets(sets)
    val exploded = sets.flatMap(s => s.map(v => (s.sorted.mkString(","), v)))
      .toDF("set_key", "vertex")
    val joined = small.influenceOf(exploded).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(fast.keySet == joined.keySet)
    fast.foreach { case (k, v) => assert(math.abs(v - joined(k)) < 1e-9, k) }
    small.unpersist()
  }

  test("influence of the full vertex set is exactly n") {
    val got = tinyOracle.influenceOfSets(Seq(Seq(0, 1, 2, 3)))
    assert(got("0,1,2,3") == 4.0)
  }

  test("generation is deterministic in the oracle seed") {
    val a = new RRSetJob(spark, tiny, 500, seed = 5)
    val b = new RRSetJob(spark, tiny, 500, seed = 5)
    val ra = a.membership.collect().map(r => (r.getLong(0), r.getInt(1))).sorted.toSeq
    val rb = b.membership.collect().map(r => (r.getLong(0), r.getInt(1))).sorted.toSeq
    assert(ra == rb)
    a.unpersist(); b.unpersist()
  }

  test("coverage counting agrees with DuckDB (oracle check of the join)") {
    val small = new RRSetJob(spark, tiny, 2000, seed = 6)
    import spark.implicits._
    val seedSets = Seq(("a", 0), ("b", 1), ("b", 3)).toDF("set_key", "vertex")
    val sparkDf = small.influenceOf(seedSets)
      .select(col("set_key"), round(col("influence"), 6) as "influence")
    Oracle.assertEquivalent(
      sparkDf,
      s"""SELECT s.set_key,
         |       ROUND(COUNT(DISTINCT m.rr_id) * 4.0 / 2000, 6) AS influence
         |FROM (SELECT DISTINCT set_key FROM seed_sets) s
         |LEFT JOIN seed_sets ss ON ss.set_key = s.set_key
         |LEFT JOIN membership m ON m.vertex = ss.vertex
         |GROUP BY s.set_key""".stripMargin,
      "membership" -> small.membership,
      "seed_sets" -> seedSets,
    )
    small.unpersist()
  }

  test("per-vertex estimates on Karate under UC0.1 are plausible") {
    val g = ProbModel.assign(GraphGen.karate(), ProbModel.uc01)
    val oracle = RRSetJob(spark, g, 100000, seed = 7)
    val inf = oracle.perVertexInfluence().collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    // Every vertex influences at least itself and at most the graph.
    inf.values.foreach(v => assert(v >= 0.9 && v <= 34.0))
    // Hubs (0 and 33 in 0-indexed ids) beat the median vertex.
    val median = inf.values.toSeq.sorted.apply(17)
    assert(inf(0) > median && inf(33) > median)
    oracle.unpersist()
  }

  test("materialize returns the stored vertex count consistent with membership") {
    val small = new RRSetJob(spark, tiny, 1000, seed = 8)
    assert(small.materialize() == small.membership.count())
    small.unpersist()
  }

  test("oracle on a mismatched graph is rejected by Sweep") {
    val other = LocalGraph.fromWeightedEdges(3, Seq((0, 1, 0.5)))
    assertThrows[IllegalArgumentException] {
      repro.exp.Sweep.run(spark, other, tinyOracle, 1,
        repro.exp.Sweep.Config(trials = 1, oneshotMax = 1, snapshotMax = 1, risMax = 1))
    }
  }

  test("theta beyond Int.MaxValue is rejected before anything is built") {
    val e = intercept[IllegalArgumentException](new RRSetJob(spark, tiny, Int.MaxValue + 1L, 1))
    assert(e.getMessage.contains("theta"))
  }
}
