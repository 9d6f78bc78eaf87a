package perfbench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Benchmark entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`.
  *
  * Prints the pinned environment, every metric as `metric <name> <value>
  * <unit>` and, last, one JSON result line: the end-to-end metrics
  * untraced, the per-layer metrics traced. Exits 1 when a correctness
  * check or an operation failed.
  */
object Main {

  /** End-to-end metrics every workload reports, in result order. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "wall_s" -> "s", "work_per_s" -> "1/s", "peak_heap_mb" -> "MB")

  /** Per-layer metrics of the traced run; layers a workload does not
    * exercise report 0.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "graphs.gen_s" -> "s", "graphs.csr_bytes" -> "bytes",
    "core.Ic.edge_visits" -> "count", "core.Ic.edges_per_s" -> "1/s",
    "core.Oneshot.estimate_s" -> "s",
    "core.Greedy.estimate_calls" -> "count", "core.Greedy.self_s" -> "s",
    "core.Snapshot.build_s" -> "s", "core.Snapshot.estimate_s" -> "s",
    "core.Snapshot.update_s" -> "s", "core.Snapshot.edge_visits" -> "count",
    "core.Snapshot.live_edges" -> "count",
    "core.Ris.build_s" -> "s", "core.Ris.update_s" -> "s",
    "core.RRSets.sets_per_s" -> "1/s", "core.RRSets.vertices" -> "count",
    "core.RRSets.edge_visits" -> "count",
    "spark.TrialRunner.jobs" -> "count", "spark.TrialRunner.tasks" -> "count",
    "spark.TrialRunner.job_s" -> "s", "spark.TrialRunner.job_overhead_ms" -> "ms",
    "spark.TrialRunner.parallel_eff" -> "ratio", "spark.TrialRunner.task_skew" -> "ratio",
    "spark.TrialRunner.deser_s" -> "s", "spark.TrialRunner.gc_s" -> "s",
    "spark.RRSetJob.materialize_s" -> "s", "spark.RRSetJob.membership_rows" -> "count",
    "spark.RRSetJob.index_s" -> "s", "spark.RRSetJob.index_bytes" -> "bytes",
    "spark.RRSetJob.result_bytes" -> "bytes", "spark.RRSetJob.eval_s" -> "s",
    "spark.RRSetJob.eval_overhead_ms" -> "ms", "spark.RRSetJob.per_vertex_s" -> "s",
    "spark.RRSetJob.shuffle_bytes" -> "bytes",
    "analysis.entropy_s" -> "s", "analysis.summary_s" -> "s",
    "exp.Sweep.self_s" -> "s", "exp.Sweep.reference_s" -> "s",
    "jvm.gc_s" -> "s", "jvm.heap_after_gc_mb" -> "MB",
    "trace.overhead_s" -> "s", "trace.spans" -> "count")

  private final case class Args(workload: Workload, seed: Long, seconds: Double,
                                trace: Boolean, out: Path)

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val name = need("workload")
    val wl = Workload.all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${Workload.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Args(wl, need("seed").toLong, need("seconds").toDouble, trace, Paths.get(need("out")).toAbsolutePath)
  }

  /** Cache sizes as the kernel reports them for CPU 0. */
  private def caches(): String = {
    val dir = Paths.get("/sys/devices/system/cpu/cpu0/cache")
    if (!Files.isDirectory(dir)) "unknown"
    else Files.list(dir).iterator().asScala.filter(_.getFileName.toString.startsWith("index")).toSeq
      .sortBy(_.toString).map { d =>
        def read(f: String) = new String(Files.readAllBytes(d.resolve(f))).trim
        s"L${read("level")}${read("type").take(1).toLowerCase}=${read("size")}"
      }.mkString(",")
  }

  def main(argv: Array[String]): Unit = {
    val args = try parse(argv) catch {
      case NonFatal(e) => Console.err.println(s"perfbench: ${e.getMessage}"); sys.exit(2)
    }
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val shufflePartitions = 64
    val t0 = System.nanoTime()
    // Settings of the repository's job entry points (jobs/JobSession).
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${args.workload.name}")
      .config("spark.ui.enabled", value = false)
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.local.dir", args.out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", args.out.resolve("warehouse").toString)
      .getOrCreate()
    val sessionS = (System.nanoTime() - t0) / 1e9
    spark.sparkContext.setLogLevel("WARN")

    println(Seq(
      s"workload=${args.workload.name}", s"seed=${args.seed}", s"seconds=${args.seconds}",
      s"trace=${if (args.trace) 1 else 0}", s"master=${spark.sparkContext.master}",
      s"driver_heap_mb=${Runtime.getRuntime.maxMemory / 1048576}",
      s"shuffle_partitions=$shufflePartitions", s"jdk=${System.getProperty("java.version")}",
      s"spark=${spark.version}", s"scala=${scala.util.Properties.versionNumberString}",
      s"nproc=${Runtime.getRuntime.availableProcessors}", s"caches=${caches()}",
    ).mkString("env ", " ", ""))

    val run = s"${args.workload.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
    val collector = new JobCollector
    spark.sparkContext.addSparkListener(collector)
    val ctx = new Ctx(spark, args.seed, args.seconds, args.trace, new Tracer(run), collector, new Tally)

    val outcome = try args.workload.run(ctx, sessionS) catch {
      case NonFatal(e) =>
        e.printStackTrace()
        spark.stop()
        sys.exit(1)
    }
    val jobs = ctx.jobs
    ctx.tally.tasks(jobs.map(_.tasks.toLong).sum, jobs.map(_.failedTasks.toLong).sum +
      jobs.count(!_.succeeded))
    val failedFrac = ctx.tally.failedCount.toDouble / ctx.tally.attemptedCount

    val e2e = Seq(outcome.setupS, outcome.wallS, outcome.workPerS, outcome.peakHeapMb)
      .zip(EndToEnd).map { case (v, (n, u)) => Metric(n, v, u) }
    (e2e ++ outcome.named :+ Metric("failed_frac", failedFrac, "ratio")).foreach { m =>
      println(s"metric ${m.name} ${m.value} ${m.unit}")
    }
    val reported = if (!args.trace) e2e else {
      val spansFile = args.out.resolve("traces").resolve(s"$run.jsonl")
      ctx.tracer.write(spansFile)
      ctx.layers("trace.spans") = ctx.tracer.spans.size.toDouble
      println(s"spans ${ctx.tracer.spans.size} written to $spansFile")
      val layers = PerLayer.map { case (n, u) => Metric(n, ctx.layers.getOrElse(n, 0.0), u) }
      layers.foreach(m => println(s"layer ${m.name} ${m.value} ${m.unit}"))
      layers
    }
    spark.stop()

    val metrics = Json.obj(reported.map { m =>
      m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))
    })
    println(Json.obj(Seq(
      "correct" -> ctx.tally.correct.toString,
      "attempted" -> ctx.tally.attemptedCount.toString,
      "failed" -> ctx.tally.failedCount.toString,
      "metrics" -> metrics)))
    sys.exit(if (ctx.tally.correct && ctx.tally.failedCount == 0) 0 else 1)
  }
}
