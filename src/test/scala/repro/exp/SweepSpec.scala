package repro.exp

import repro.SparkSpec
import repro.graphs.{GraphGen, ProbModel}
import repro.spark.{Alg, RRSetJob}

class SweepSpec extends SparkSpec {

  // One shared small sweep on Karate (UC0.1, k=1): large enough to show the
  // paper's qualitative phenomena, small enough for a unit test.
  private lazy val g = ProbModel.assign(GraphGen.karate(), ProbModel.uc01)
  private lazy val oracle = RRSetJob(spark, g, theta = 100000, seed = 11)
  private lazy val cfg = Sweep.Config(trials = 60, oneshotMax = 2048,
                                      snapshotMax = 2048, risMax = 1 << 17,
                                      refTheta = 1 << 17)
  private lazy val result = Sweep.run(spark, g, oracle, k = 1, cfg)

  test("sweep covers the full powers-of-two grid for each algorithm") {
    assert(result.curve(Alg.OneshotAlg).map(_.sampleNumber) ==
           Sweep.powersOfTwo(2048))
    assert(result.curve(Alg.SnapshotAlg).map(_.sampleNumber) ==
           Sweep.powersOfTwo(2048))
    assert(result.curve(Alg.RisAlg).map(_.sampleNumber).last == (1L << 17))
  }

  test("every grid point has one influence value per trial") {
    result.points.foreach(p => assert(p.influences.size == 60, s"${p.alg}@${p.sampleNumber}"))
  }

  test("entropy decreases from the low-sample to the high-sample end") {
    for (alg <- Alg.all) {
      val c = result.curve(alg)
      assert(c.head.entropy > c.last.entropy, alg.name)
    }
  }

  test("entropy at the largest sample number is near 0 (convergence, §5.1)") {
    for (alg <- Alg.all) {
      assert(result.curve(alg).last.entropy < 0.6,
             s"${alg.name}: H=${result.curve(alg).last.entropy}")
    }
  }

  test("mean influence improves from the low-sample to the high-sample end") {
    for (alg <- Alg.all) {
      val c = result.curve(alg)
      assert(c.last.meanInfluence > c.head.meanInfluence, alg.name)
    }
  }

  test("converged mean influence approaches the reference for all algorithms") {
    for (alg <- Alg.all) {
      val last = result.curve(alg).last.meanInfluence
      assert(last >= 0.95 * result.referenceInfluence,
             s"${alg.name}: $last vs ref ${result.referenceInfluence}")
    }
  }

  test("the three algorithms converge to the same modal seed set (§5.4.1)") {
    val modal = Alg.all.map { alg =>
      val p = result.curve(alg).last
      // Reconstruct the modal key from influences is not possible; instead
      // rely on near-degenerate entropy plus agreement of mean influence.
      p.meanInfluence
    }
    val spread = modal.max - modal.min
    assert(spread < 0.05 * result.referenceInfluence, s"means=$modal")
  }

  test("reference seed set is deterministic") {
    val a = Sweep.referenceSeedSet(g, 1, 1 << 14, seed = 5)
    val b = Sweep.referenceSeedSet(g, 1, 1 << 14, seed = 5)
    assert(a == b)
    assert(a.size == 1)
  }

  test("Snapshot mean sample size grows linearly in τ (≈ τ·m̃)") {
    val c = result.curve(Alg.SnapshotAlg)
    val perTau = c.map(p => p.meanSampleSize / p.sampleNumber)
    perTau.foreach { r =>
      assert(math.abs(r - g.mTilde) < 0.35 * g.mTilde, s"size/τ=$r m̃=${g.mTilde}")
    }
  }

  test("RIS mean sample size per θ is the empirical EPT (≤ 1 + m̃)") {
    val c = result.curve(Alg.RisAlg)
    val perTheta = c.last.meanSampleSize / c.last.sampleNumber
    assert(perTheta >= 1.0 && perTheta <= 1 + g.mTilde + 0.5)
  }

  test("Oneshot sample size is 0 at every grid point") {
    result.curve(Alg.OneshotAlg).foreach(p => assert(p.meanSampleSize == 0.0))
  }

  test("per-sample vertex cost ratio Oneshot:Snapshot:RIS ≈ 1:1:1/n (§5.3)") {
    val o = result.curve(Alg.OneshotAlg).head
    val s = result.curve(Alg.SnapshotAlg).head
    val r = result.curve(Alg.RisAlg).head
    assert(math.abs(o.meanVertexCost / s.meanVertexCost - 1.0) < 0.3,
           s"oneshot=${o.meanVertexCost} snapshot=${s.meanVertexCost}")
    val risRatio = r.meanVertexCost / o.meanVertexCost
    assert(risRatio < 5.0 / g.n, s"RIS/Oneshot vertex cost ratio $risRatio")
  }

  test("config with oneshotMax=0 produces no Oneshot points") {
    val r2 = Sweep.run(spark, g, oracle, k = 1,
      Sweep.Config(trials = 4, oneshotMax = 0, snapshotMax = 2, risMax = 2,
                   refTheta = 1024))
    assert(r2.curve(Alg.OneshotAlg).isEmpty)
    assert(r2.curve(Alg.SnapshotAlg).nonEmpty)
  }

  test("sample numbers beyond Int.MaxValue are rejected before any job") {
    val tooBig = Int.MaxValue + 1L
    val cfgs = Seq(
      Sweep.Config(trials = 1, oneshotMax = 0, snapshotMax = 0, risMax = tooBig, risMin = tooBig),
      Sweep.Config(trials = 1, oneshotMax = 0, snapshotMax = 0, risMax = 1, refTheta = tooBig))
    cfgs.foreach(c => intercept[IllegalArgumentException](Sweep.run(spark, g, oracle, 1, c)))
    // 2³² + 16 would wrap to θ = 16 as an Int and run silently.
    for (refTheta <- Seq(tooBig, (1L << 32) + 16))
      intercept[IllegalArgumentException](Sweep.referenceSeedSet(g, 1, refTheta, seed = 5))
  }
}
