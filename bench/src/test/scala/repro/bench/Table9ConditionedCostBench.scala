package repro.bench

import repro.SparkSpec
import repro.exp.Tables

/** Reproduces paper Table 9: traversal cost at k = 1 in γ units when the
  * three algorithms are conditioned to identical accuracy.
  */
class Table9ConditionedCostBench extends SparkSpec {

  /** cost cells: (network, alg, model) -> γ-cost. */
  private lazy val cells = Tables.table9Cells(spark)

  test("print Table 9 rows") {
    Tables.render(9, Tables.table9Lines(cells)).foreach(println)
    assert(cells.nonEmpty)
  }

  test("Oneshot is never meaningfully cheaper than Snapshot (paper conclusion 1)") {
    val pairs = for {
      ((net, alg, model), Some(o)) <- cells.toSeq if alg == "Oneshot"
      s <- cells.getOrElse((net, "Snapshot", model), None)
    } yield (net, model, o, s)
    assert(pairs.nonEmpty)
    val ok = pairs.count { case (_, _, o, s) => o >= 0.8 * s }
    assert(ok.toDouble / pairs.size > 0.7,
           s"Oneshot beat Snapshot on: ${pairs.filter { case (_, _, o, s) => o < 0.8 * s }}")
  }

  test("RIS beats Snapshot on the large networks (paper conclusion 2a)") {
    val wins = for {
      net <- Seq("com-Youtube~", "soc-Pokec~")
      model <- Seq("UC0.01", "IWC", "OWC")
      r <- cells.getOrElse((net, "RIS", model), None)
      s <- cells.getOrElse((net, "Snapshot", model), None)
    } yield r < s
    assert(wins.nonEmpty)
    assert(wins.count(identity).toDouble / wins.size > 0.5,
           s"RIS won only ${wins.count(identity)}/${wins.size} large-network cells")
  }

  test("Snapshot beats RIS somewhere on small low-probability instances (2b)") {
    val snapWins = for {
      (net, model) <- Seq(("BA_s", "UC0.01"), ("BA_s", "UC0.1"), ("ca-GrQc", "UC0.01"),
                          ("BA_d", "UC0.01"))
      r <- cells.getOrElse((net, "RIS", model), None)
      s <- cells.getOrElse((net, "Snapshot", model), None)
    } yield s < r
    assert(snapWins.nonEmpty)
    assert(snapWins.exists(identity),
           "Snapshot never beat RIS on small low-probability instances")
  }
}
