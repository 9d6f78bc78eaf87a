package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, desc}
import repro.analysis.{ComparableRatio, InfluenceStats}
import repro.graphs.{GraphFrames, ProbModel}
import repro.spark.Alg
import scala.collection.immutable.SeqMap

/** Cells and printed rows of every evaluation table of the paper (Tables
  * 3–9). Each table has one `tableNCells` function, which takes its plan
  * rows from [[BenchPlan]] and its sweeps, oracles and per-sample costs from
  * [[SweepStore]], and one `tableNLines` function that lays the cells out
  * for [[render]]. The `jobs/` entry point and the `bench/` suites both call
  * these, so every printed table comes from a single implementation.
  */
object Tables {

  private val modelNames = ProbModel.all.map(_.name)

  // ---------------------------------------------------------------- Table 3

  /** Table 3: network statistics per network name. */
  def table3Cells(spark: SparkSession, specs: Seq[NetworkSpec] = Instances.all)
      : SeqMap[String, GraphFrames.NetworkStats] =
    SeqMap.from(specs.map { spec =>
      spec.name -> GraphFrames.networkStats(spark, spec.name, Instances.graph(spec),
                                            spec.withDistance)
    })

  def table3Lines(cells: SeqMap[String, GraphFrames.NetworkStats]): Seq[Line] =
    cells.toSeq.map { case (name, s) =>
      Line(Seq(name), Seq(s.n, s.m, s.maxOut, s.maxIn).map(v => Some(v.toString)) ++
        Seq(Some(f"${s.clusteringCoef}%.2f"),
            Option.unless(s.avgDistance.isNaN)(f"${s.avgDistance}%.2f")))
    }

  // ---------------------------------------------------------------- Table 4

  /** Table 4: top-3 single-vertex influence spreads per (network, model),
    * estimated with the shared oracle.
    */
  def table4Cells(spark: SparkSession, specs: Seq[NetworkSpec] = BenchPlan.table4Networks)
      : SeqMap[(String, String), Seq[Double]] =
    SeqMap.from(for (spec <- specs; model <- ProbModel.all) yield
      (spec.name, model.name) -> SweepStore.oracle(spark, spec, model).perVertexInfluence()
        .orderBy(desc("influence"), col("vertex"))
        .limit(3)
        .collect()
        .map(_.getDouble(1))
        .toSeq)

  def table4Lines(cells: SeqMap[(String, String), Seq[Double]]): Seq[Line] =
    cells.toSeq.map { case ((net, model), top) =>
      Line(Seq(net, model), top.map(v => Some(f"$v%.4f")))
    }

  // ---------------------------------------------------------------- Table 5

  /** Table 5 cell for one algorithm: log₂ of the least sample number s*
    * whose trials are ≥ 0.95 × reference with probability ≥ 0.99, plus the
    * seed-set entropy H* at s*. None when no grid point qualifies (the
    * paper's "> max" cells).
    */
  final case class LeastSample(log2SampleNumber: Int, entropy: Double)

  def table5Cell(sweep: Sweep.Result, alg: Alg): Option[LeastSample] = {
    val curve = sweep.curve(alg).map(p => p.sampleNumber -> p.influences)
    InfluenceStats.leastSampleNumber(curve, sweep.referenceInfluence).map { s =>
      val p = sweep.curve(alg).find(_.sampleNumber == s).get
      LeastSample(java.lang.Long.numberOfTrailingZeros(s), p.entropy)
    }
  }

  /** Table 5: per sweep row, each algorithm's cell by algorithm name. */
  def table5Cells(spark: SparkSession,
                  rows: Seq[SweepRow] = BenchPlan.sweepRows.filterNot(_.network.starred))
      : SeqMap[(String, String, Int), Map[String, Option[LeastSample]]] =
    SeqMap.from(rows.map { row =>
      val sweep = SweepStore.sweep(spark, row)
      row.key -> Alg.all.map(a => a.name -> table5Cell(sweep, a)).toMap
    })

  def table5Lines(cells: SeqMap[(String, String, Int), Map[String, Option[LeastSample]]])
      : Seq[Line] =
    cells.toSeq.map { case ((net, model, k), m) =>
      Line(Seq(net, model, k.toString), Alg.all.flatMap { a =>
        m(a.name) match {
          case Some(ls) => Seq(Some(ls.log2SampleNumber.toString), Some(f"${ls.entropy}%.2f"))
          case None     => Seq(Some(">max"), None)
        }
      })
    }

  // ------------------------------------------------------------ Tables 6, 7

  /** Table 6 cell: median comparable number ratio of Oneshot to Snapshot. */
  def table6Cell(sweep: Sweep.Result): Option[Double] =
    ComparableRatio.medianOpt(ComparableRatio.numberRatios(
      sweep.ratioCurve(Alg.SnapshotAlg), sweep.ratioCurve(Alg.OneshotAlg)))

  /** Table 6: per sweep row that runs Oneshot. */
  def table6Cells(spark: SparkSession,
                  rows: Seq[SweepRow] = BenchPlan.sweepRows.filter(_.cfg.oneshotMax > 0))
      : SeqMap[(String, String, Int), Option[Double]] =
    SeqMap.from(rows.map(row => row.key -> table6Cell(SweepStore.sweep(spark, row))))

  /** One line per (network, k), one column per probability model. */
  def table6Lines(cells: SeqMap[(String, String, Int), Option[Double]]): Seq[Line] =
    cells.keys.toSeq.map(c => (c._1, c._3)).distinct.map { case (net, k) =>
      Line(Seq(net, k.toString), modelNames.map(m => cells.get((net, m, k)).flatten.map(fmt)))
    }

  /** Table 7 cells: median comparable (number, size) ratios of RIS to
    * Snapshot.
    */
  def table7Cell(sweep: Sweep.Result): (Option[Double], Option[Double]) = {
    val base = sweep.ratioCurve(Alg.SnapshotAlg)
    val target = sweep.ratioCurve(Alg.RisAlg)
    (ComparableRatio.medianOpt(ComparableRatio.numberRatios(base, target)),
     ComparableRatio.medianOpt(ComparableRatio.sizeRatios(base, target)))
  }

  /** Table 7: per sweep row. */
  def table7Cells(spark: SparkSession, rows: Seq[SweepRow] = BenchPlan.sweepRows)
      : SeqMap[(String, String, Int), (Option[Double], Option[Double])] =
    SeqMap.from(rows.map(row => row.key -> table7Cell(SweepStore.sweep(spark, row))))

  /** One line per (network, k): the number ratios, then the size ratios,
    * one column per probability model.
    */
  def table7Lines(cells: SeqMap[(String, String, Int), (Option[Double], Option[Double])])
      : Seq[Line] =
    cells.keys.toSeq.map(c => (c._1, c._3)).distinct.map { case (net, k) =>
      val c = modelNames.map(m => cells.getOrElse((net, m, k), (None, None)))
      Line(Seq(net, k.toString), c.map(_._1.map(fmt)) ++ c.map(_._2.map(fmt)))
    }

  // ---------------------------------------------------------------- Table 8

  /** Table 8 cell: average vertex/edge traversal cost of one full greedy
    * run at k = 1 with sample number 1 (the paper's per-sample cost).
    */
  final case class PerSampleCost(vertex: Double, edge: Double) {
    def total: Double = vertex + edge
  }

  /** Table 8: per (network, algorithm, model) of the plan rows. */
  def table8Cells(spark: SparkSession, rows: Seq[BenchPlan.Table8Row] = BenchPlan.table8Rows)
      : SeqMap[(String, String, String), PerSampleCost] =
    SeqMap.from(for (row <- rows; alg <- row.algs; model <- row.models) yield
      (row.network.name, alg.name, model.name) -> SweepStore.perSampleCost(spark, row, alg, model))

  def table8Lines(cells: SeqMap[(String, String, String), PerSampleCost]): Seq[Line] =
    cells.toSeq.map { case ((net, alg, model), c) =>
      Line(Seq(net, alg, model), Seq(Some(f"${c.vertex}%.1f"), Some(f"${c.edge}%.1f")))
    }

  // ---------------------------------------------------------------- Table 9

  /** Table 9 cell: traversal cost (vertex + edge, in γ units) at k = 1 when
    * the three algorithms are conditioned to identical accuracy — the
    * per-sample cost multiplied by the algorithm's comparable number ratio
    * to Snapshot (ratio 1 for Snapshot itself).
    */
  def table9Cell(perSample: PerSampleCost, comparableRatio: Double): Double =
    perSample.total * comparableRatio

  /** Table 9: Table 8's cells on `networks` times the Table 6 (Oneshot) and
    * Table 7 (RIS) ratios of the k = 1 sweep; None where no ratio resolves.
    */
  def table9Cells(spark: SparkSession, networks: Seq[NetworkSpec] = BenchPlan.table9Networks)
      : SeqMap[(String, String, String), Option[Double]] = {
    val names = networks.map(_.name).toSet
    val perSample = table8Cells(spark, BenchPlan.table8Rows.filter(r => names(r.network.name)))
    perSample.map { case (key @ (net, alg, model), cost) =>
      key -> BenchPlan.sweepRow(net, model, 1).flatMap { row =>
        val sweep = SweepStore.sweep(spark, row)
        val ratio = alg match {
          case Alg.SnapshotAlg.name => Some(1.0)
          case Alg.OneshotAlg.name  => table6Cell(sweep)
          case Alg.RisAlg.name      => table7Cell(sweep)._1
        }
        ratio.map(table9Cell(cost, _))
      }
    }
  }

  /** One line per (network, algorithm), one column per probability model. */
  def table9Lines(cells: SeqMap[(String, String, String), Option[Double]]): Seq[Line] =
    cells.keys.toSeq.map(c => (c._1, c._2)).distinct.map { case (net, alg) =>
      Line(Seq(net, alg), modelNames.map(m => cells.get((net, alg, m)).flatten.map(fmt)))
    }

  // ------------------------------------------------------------- rendering

  /** One printed line of a table: its label columns, then its value cells
    * (`None` prints as `-`).
    */
  final case class Line(labels: Seq[String], cells: Seq[Option[String]])

  /** Label and value column names of each printed table (no spaces, so a
    * printed row splits into its columns on whitespace).
    */
  private val columns: Map[Int, (Seq[String], Seq[String])] = Map(
    3 -> (Seq("network"), Seq("n", "m", "maxOut", "maxIn", "clusCoef", "avgDist")),
    4 -> (Seq("network", "model"), Seq("Inf(v1)", "Inf(v2)", "Inf(v3)")),
    5 -> (Seq("network", "prob", "k"), Seq("lg(b*)", "H*", "lg(t*)", "H*", "lg(th*)", "H*")),
    6 -> (Seq("network", "k"), modelNames),
    7 -> (Seq("network", "k"), modelNames.map("num:" + _) ++ modelNames.map("size:" + _)),
    8 -> (Seq("network", "alg", "model"), Seq("vertex", "edge")),
    9 -> (Seq("network", "alg"), modelNames),
  )

  /** The paper tables this object prints. */
  val numbers: Seq[Int] = columns.keys.toSeq.sorted

  /** The `[tableN]` lines of one table: the column header, then one line
    * per entry of `lines` — labels left-aligned, values right-aligned.
    */
  def render(table: Int, lines: Seq[Line]): Seq[String] = {
    val (labels, values) = columns(table)
    val texts = (labels ++ values) +: lines.map(l => l.labels ++ l.cells.map(_.getOrElse("-")))
    val widths = texts.transpose.map(_.map(_.length).max)
    texts.map { t =>
      t.zip(widths).zipWithIndex.map { case ((s, w), i) =>
        if (i < labels.size) s.padTo(w, ' ') else " " * (w - s.length) + s
      }.mkString(s"[table$table] ", "  ", "")
    }
  }

  /** Lines of one paper table, computed with the plan's defaults. */
  def lines(spark: SparkSession, table: Int): Seq[Line] = table match {
    case 3 => table3Lines(table3Cells(spark))
    case 4 => table4Lines(table4Cells(spark))
    case 5 => table5Lines(table5Cells(spark))
    case 6 => table6Lines(table6Cells(spark))
    case 7 => table7Lines(table7Cells(spark))
    case 8 => table8Lines(table8Cells(spark))
    case 9 => table9Lines(table9Cells(spark))
  }

  // ------------------------------------------------------------- formatting

  def fmt(d: Double): String =
    if (d.isNaN) "-"
    else if (d == d.floor && math.abs(d) < 1e15) f"${d.toLong}%,d"
    else if (math.abs(d) >= 100) f"$d%,.1f"
    else f"$d%.4g"
}
