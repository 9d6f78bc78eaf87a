package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed round of a workload and what it returned. */
final case class Round[A](index: Int, traced: Boolean, startMs: Long, endMs: Long,
                          wallS: Double, out: A)

/** Everything a workload needs while it runs. */
final class Ctx(val spark: SparkSession, val seed: Long, val seconds: Double,
                val trace: Boolean, val tracer: Tracer, val collector: JobCollector,
                val tally: Tally) {
  val cores: Int = spark.sparkContext.defaultParallelism
  /** Per-layer numbers a workload measures; unset names print as 0. */
  val layers: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  def span[A](name: String)(body: => A): A = tracer.span(name)(body)
  def jobs: Seq[JobCollector.Job] = collector.settled(spark.sparkContext)

  /** Workload seed mixed with a purpose tag, for independent streams. */
  def seedFor(tag: Long): Long = repro.spark.TrialRunner.mixSeed(seed, tag)
}

object Harness {

  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).toSeq

  /** Heap in use right after a full collection, in MB. The second
    * collection runs after Spark's cleaner has had time to drop blocks
    * the first one released (broadcasts, unpersisted data).
    */
  def heapAfterFullGcMb(): Double = {
    System.gc()
    Thread.sleep(100)
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  /** Heap in use after the most recent collection of each pool, in MB. */
  def heapAfterLastGcMb(): Double =
    heapPools.flatMap(p => Option(p.getCollectionUsage)).map(_.getUsed).sum / 1048576.0

  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1000.0

  /** Runs the data set-up `reps` times and returns the last result with the
    * median time of one set-up. Earlier results are released with `drop`.
    */
  def setup[A](ctx: Ctx, reps: Int)(body: Int => A)(drop: A => Unit): (A, Double) = {
    val runs = (0 until reps).map { r =>
      val t0 = System.nanoTime()
      val a = body(r)
      val secs = (System.nanoTime() - t0) / 1e9
      Console.err.println(f"[perfbench] set-up ${r + 1}/$reps: $secs%.3f s")
      (a, secs)
    }
    runs.init.foreach(x => drop(x._1))
    (runs.last._1, Stats.median(runs.map(_._2)))
  }

  /** Timed rounds, with the heap and GC figures taken between them. */
  final class Rounds[A](val all: Seq[Round[A]], val peakHeapMb: Double,
                        val heapAfterGcMb: Double, val gcS: Double)

  /** Timed rounds of a workload.
    *
    * Rounds repeat until `seconds` have passed and at least `min` rounds ran.
    * In a traced run every second round records spans. After each round,
    * outside its timing, a full GC measures the heap the round still holds,
    * then `after` checks and releases the round's output. A round that
    * throws counts as a failed operation.
    */
  def rounds[A](ctx: Ctx, seconds: Double, min: Int)
               (body: Int => A)(after: A => Unit): Rounds[A] = {
    val out = Seq.newBuilder[Round[A]]
    var peak = 0.0
    var afterGc = 0.0
    val gc0 = gcSeconds()
    val t0 = System.nanoTime()
    var i = 0
    while (i < min || (System.nanoTime() - t0) / 1e9 < seconds) {
      val traced = ctx.trace && i % 2 == 1
      ctx.tracer.enabled = traced
      val startMs = System.currentTimeMillis()
      val s = System.nanoTime()
      val r = ctx.tally.op(s"round $i")(ctx.span("round")(body(i)))
      val wall = (System.nanoTime() - s) / 1e9
      val endMs = System.currentTimeMillis()
      ctx.tracer.enabled = false
      Console.err.println(f"[perfbench] round $i${if (traced) " (traced)" else ""}: $wall%.3f s")
      afterGc = math.max(afterGc, heapAfterLastGcMb())
      peak = math.max(peak, heapAfterFullGcMb())
      r.foreach { a =>
        out += Round(i, traced, startMs, endMs, wall, a)
        after(a)
      }
      i += 1
    }
    new Rounds(out.result(), peak, afterGc, gcSeconds() - gc0)
  }

  /** Jobs that ran inside the given rounds. */
  def jobsIn(jobs: Seq[JobCollector.Job], rounds: Seq[Round[_]]): Seq[JobCollector.Job] =
    jobs.filter(j => j.endMs >= 0 && rounds.exists(r => j.startMs >= r.startMs && j.endMs <= r.endMs))

  /** Per-round layer numbers of the Spark jobs in traced `rounds`. A job
    * whose call site names no library class (a DataFrame the library
    * returned, run by the benchmark) belongs to the layer of the benchmark
    * span around it.
    */
  def sparkLayers(ctx: Ctx, rounds: Seq[Round[_]]): Unit = {
    val n = math.max(1, rounds.size).toDouble
    val jobs = jobsIn(ctx.jobs, rounds)
    def layer(j: JobCollector.Job): String =
      if (j.layer != "other") j.layer
      else ctx.tracer.innermost(j).map(_.name).filter(_.startsWith("spark."))
        .map(_.split('.').take(2).mkString(".")).getOrElse("other")
    val trial = jobs.filter(layer(_) == "spark.TrialRunner")
    val oracle = jobs.filter(layer(_) == "spark.RRSetJob")
    val L = ctx.layers
    L("spark.TrialRunner.jobs") = trial.size / n
    L("spark.TrialRunner.tasks") = trial.map(_.tasks).sum / n
    L("spark.TrialRunner.job_s") = trial.map(_.wallMs).sum / 1000.0 / n
    L("spark.TrialRunner.job_overhead_ms") = Stats.mean(trial.map(_.overheadMs))
    val skews = trial.filter(_.runMs.size >= 2).flatMap { j =>
      val med = Stats.median(j.runMs.map(_.toDouble).toSeq)
      if (med > 0) Some(j.runMs.max / med) else None
    }
    L("spark.TrialRunner.task_skew") = if (skews.isEmpty) 0.0 else Stats.median(skews)
    L("spark.TrialRunner.deser_s") = trial.map(_.deserMs).sum / 1000.0 / n
    L("spark.TrialRunner.gc_s") = trial.map(_.gcMs).sum / 1000.0 / n
    L("spark.RRSetJob.result_bytes") = oracle.map(_.resultBytes).sum / n
    L("spark.RRSetJob.shuffle_bytes") = oracle.map(_.shuffleBytes).sum / n
    val evals = oracle.filter(_.method == "influenceOfSets")
    L("spark.RRSetJob.eval_overhead_ms") = Stats.mean(evals.map { j =>
      // The call's wall time, where the benchmark timed the call itself.
      val callMs = ctx.tracer.innermost(j).filter(_.name == "spark.RRSetJob.influenceOfSets")
        .map(s => (s.endUs - s.startUs) / 1000.0).getOrElse(j.wallMs.toDouble)
      callMs - (if (j.runMs.isEmpty) 0L else j.runMs.max)
    })
    L("spark.RRSetJob.eval_s") = evals.map(_.wallMs).sum / 1000.0 / n
  }

  /** Bytes of a graph's two CSR adjacency structures (computed). */
  def csrBytes(g: repro.graphs.LocalGraph): Double =
    2.0 * (4L * (g.n + 1) + 12L * g.m)
}
