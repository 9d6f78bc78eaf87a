package repro.exp

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.Table
import repro.spark.Alg
import scala.collection.immutable.SeqMap

class TablesSpec extends AnyFunSuite {

  /** Synthetic sweep with controlled curves:
    * Snapshot mean reaches m at sample number s = m (identity curve),
    * Oneshot needs 4× the samples, RIS needs 64× but tiny sizes.
    */
  private def syntheticSweep(trials: Int = 100): Sweep.Result = {
    def point(alg: String, s: Long, mean: Double, size: Double,
              influences: Seq[Double], entropy: Double = 1.0) =
      Sweep.Point(alg, s, entropy, influences, mean, size, 10.0 * s, 100.0 * s)
    val grid = Seq(1L, 2L, 4L, 8L, 16L, 32L, 64L, 128L)
    val snapshot = grid.map(s => point("Snapshot", s, math.log(s.toDouble * 2), 50.0 * s,
      Seq.fill(trials)(math.log(s.toDouble * 2))))
    val oneshot = grid.map(s => point("Oneshot", s, math.log(s.toDouble / 2), 0.0,
      Seq.fill(trials)(math.log(s.toDouble / 2))))
    val ris = (0 to 13).map(1L << _).map(s => point("RIS", s, math.log(s / 32.0), 0.5 * s,
      Seq.fill(trials)(math.log(s / 32.0))))
    Sweep.Result(snapshot ++ oneshot ++ ris, "0", referenceInfluence = math.log(256.0))
  }

  test("table6Cell: Oneshot:Snapshot comparable number ratio is the shift factor") {
    val ratio = Tables.table6Cell(syntheticSweep())
    assert(ratio == Some(4.0))
  }

  test("table7Cell: RIS:Snapshot number ratio is 64 and size ratio follows") {
    val (num, size) = Tables.table7Cell(syntheticSweep())
    assert(num == Some(64.0))
    // at base s, size base = 50s; target s2 = 64s with size 0.5·64s = 32s
    assert(size.isDefined)
    assert(math.abs(size.get - 32.0 / 50.0) < 1e-9)
  }

  test("table5Cell finds the least sample number at 0.95 of the reference") {
    val sweep = syntheticSweep()
    // Snapshot mean log(2s) >= 0.95·log(256) ⇔ 2s >= 256^0.95 ⇒ s = 128.
    val cell = Tables.table5Cell(sweep, Alg.SnapshotAlg)
    assert(cell.isDefined)
    assert(cell.get.log2SampleNumber == 7)
  }

  test("table5Cell is None when the curve never qualifies") {
    val sweep = syntheticSweep()
    assert(Tables.table5Cell(sweep, Alg.OneshotAlg).isDefined == (
      // Oneshot's top mean log(64) vs threshold 0.95·log(256): log(64)=4.16 < 5.27
      false))
  }

  test("table5Cell reports the entropy at the qualifying point") {
    val sweep = syntheticSweep()
    val cell = Tables.table5Cell(sweep, Alg.SnapshotAlg).get
    assert(cell.entropy == 1.0)
  }

  test("table9Cell multiplies per-sample total cost by the comparable ratio") {
    val c = Tables.PerSampleCost(vertex = 100.0, edge = 900.0)
    assert(Tables.table9Cell(c, 4.0) == 4000.0)
    assert(c.total == 1000.0)
  }

  test("a sweep with trials below the 99% resolution still resolves cells") {
    // With 10 trials, 99% success requires all 10 — a constant curve works.
    val cell = Tables.table5Cell(syntheticSweep(trials = 10), Alg.SnapshotAlg)
    assert(cell.isDefined)
  }

  test("fmt renders integers with separators and small reals with precision") {
    assert(Tables.fmt(1234567.0) == "1,234,567")
    assert(Tables.fmt(Double.NaN) == "-")
    assert(Tables.fmt(0.00033).startsWith("0.000330"))
    assert(Tables.fmt(3.5) == "3.500")
  }

  test("curve extraction filters by algorithm and sorts by sample number") {
    val sweep = syntheticSweep()
    val c = sweep.curve(Alg.RisAlg)
    assert(c.map(_.sampleNumber) == (0 to 13).map(1L << _))
    assert(c.forall(_.alg == "RIS"))
  }

  test("ratioCurve carries mean influence and sample size") {
    val sweep = syntheticSweep()
    val rc = sweep.ratioCurve(Alg.SnapshotAlg)
    assert(rc.head.meanSampleSize == 50.0)
    assert(rc.last.sampleNumber == 128L)
  }

  test("render prints the header, then one aligned row per line, with - for None") {
    val out = Tables.render(8, Tables.table8Lines(SeqMap(
      ("Karate", "RIS", "IWC") -> Tables.PerSampleCost(3.94, 25.87),
      ("BA_d", "Oneshot", "UC0.1") -> Tables.PerSampleCost(145005.0, 2030196.04))))
    assert(out.map(_.split(" +").toSeq) == Seq(
      Seq("[table8]", "network", "alg", "model", "vertex", "edge"),
      Seq("[table8]", "Karate", "RIS", "IWC", "3.9", "25.9"),
      Seq("[table8]", "BA_d", "Oneshot", "UC0.1", "145005.0", "2030196.0")))
    assert(out.map(_.length).distinct.size == 1, out.mkString("\n"))
    val row = Tables.render(4, Seq(Tables.Line(Seq("BA_s", "OWC"), Seq(Some("5.6400"), None, None))))(1)
    assert(row.split(" +").toSeq == Seq("[table4]", "BA_s", "OWC", "5.6400", "-", "-"))
  }

  test("model-column tables pivot one row per (network, k) and print - for missing cells") {
    val out = Tables.render(6, Tables.table6Lines(SeqMap(
      ("Karate", "UC0.1", 1) -> Some(2.0),
      ("Karate", "IWC", 1) -> None,
      ("BA_s", "OWC", 16) -> Some(8.0))))
    assert(out.map(_.split(" +").toSeq) == Seq(
      Seq("[table6]", "network", "k", "UC0.1", "UC0.01", "IWC", "OWC"),
      Seq("[table6]", "Karate", "1", "2", "-", "-", "-"),
      Seq("[table6]", "BA_s", "16", "-", "-", "-", "8")))
  }

  test("the table entry point accepts 3 to 9 and rejects anything else before starting Spark") {
    assert((3 to 9).map(n => Table.parse(Array(n.toString))) == (3 to 9))
    val before = SparkSession.getDefaultSession
    for (args <- Seq(Array("10"), Array("2"), Array("eight"), Array.empty[String], Array("8", "9"))) {
      val e = intercept[IllegalArgumentException](Table.main(args))
      assert(e.getMessage.startsWith("usage: Table"))
    }
    assert(SparkSession.getDefaultSession == before)
  }
}
