package repro.bench

import repro.SparkSpec
import repro.exp.Tables

/** Reproduces paper Table 5: least sample number (log₂) and entropy at
  * which each algorithm reaches 0.95-near-optimality with probability 99%.
  */
class Table5LeastSampleBench extends SparkSpec {

  private lazy val cells = Tables.table5Cells(spark)

  test("print Table 5 rows") {
    Tables.render(5, Tables.table5Lines(cells)).foreach(println)
    assert(cells.nonEmpty)
  }

  test("RIS needs more samples than Snapshot wherever both are defined (paper shape)") {
    val comparable = for {
      m <- cells.values
      r <- m("RIS"); s <- m("Snapshot")
    } yield r.log2SampleNumber >= s.log2SampleNumber
    assert(comparable.nonEmpty)
    val fraction = comparable.count(identity).toDouble / comparable.size
    assert(fraction > 0.8, s"only ${fraction * 100}%% of rows satisfy θ* ≥ τ*")
  }

  test("Oneshot never needs fewer samples than half of Snapshot's") {
    val diffs = for {
      m <- cells.values
      o <- m("Oneshot"); s <- m("Snapshot")
    } yield o.log2SampleNumber - s.log2SampleNumber
    assert(diffs.nonEmpty)
    assert(diffs.count(_ >= -1).toDouble / diffs.size > 0.75,
           s"β* << τ* on too many rows: $diffs")
  }

  test("the required sample number varies widely across instances (paper finding)") {
    val snap = cells.values.flatMap(_("Snapshot")).map(_.log2SampleNumber)
    assert(snap.nonEmpty)
    assert(snap.max - snap.min >= 3,
           s"τ* spans only [${snap.min}, ${snap.max}]")
  }

  test("Karate (UC0.1, k=1) resolves within the grid for every algorithm") {
    val m = cells(("Karate", "UC0.1", 1))
    assert(m("Oneshot").isDefined && m("Snapshot").isDefined && m("RIS").isDefined)
  }

  test("entropy at the least sample number need not be 0 (paper remark)") {
    val entropies = cells.values.flatMap(_.values.flatten).map(_.entropy)
    assert(entropies.exists(_ > 0.5), "all H* were ~0 — near-optimality should precede degeneracy")
  }
}
