package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import org.apache.spark.{ListenerBusAccess, SparkContext, Success => TaskSuccess}
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** One timed interval at a layer boundary: a call the benchmark made, or
  * a Spark job (`sparkJob`). Times are epoch microseconds so benchmark
  * spans and Spark job events (epoch milliseconds) line up.
  */
final case class Span(id: Int, parent: Int, name: String, startUs: Long,
                      endUs: Long, run: String, sparkJob: Boolean = false) {
  def seconds: Double = (endUs - startUs) / 1e6
}

/** Spans recorded by the benchmark around its calls into the library.
  * Spans stay in memory and are written out once, when the run ends.
  * Recording is off until `enabled` is set, so untraced rounds pay only a
  * flag test per call.
  */
final class Tracer(val run: String) {
  @volatile var enabled: Boolean = false

  private val t0Ms = System.currentTimeMillis()
  private val t0Ns = System.nanoTime()
  private val done = ArrayBuffer.empty[Span]
  private var open = List(0) // ids of the open spans, innermost first; 0 is the root
  private var nextId = 1

  def nowUs: Long = t0Ms * 1000L + (System.nanoTime() - t0Ns) / 1000L

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.head
      open = id :: open
      val start = nowUs
      try body
      finally {
        open = open.tail
        done += Span(id, parent, name, start, nowUs, run)
      }
    }

  /** The innermost span recorded so far that holds job `j`. Job events
    * carry millisecond times, so 1 ms of slack is allowed.
    */
  def innermost(j: JobCollector.Job): Option[Span] = {
    val holders = done.filter(p => !p.sparkJob &&
      p.startUs - 1000L <= j.startMs * 1000L && j.endMs * 1000L <= p.endUs + 1000L)
    if (holders.isEmpty) None else Some(holders.maxBy(_.startUs))
  }

  /** Adds Spark jobs as child spans of the innermost benchmark span that
    * holds them; jobs outside every span are dropped.
    */
  def addJobs(jobs: Seq[JobCollector.Job]): Unit =
    jobs.filter(_.endMs >= 0).foreach { j =>
      innermost(j).foreach { parent =>
        done += Span(nextId, parent.id, s"${j.layer}.${j.method}", j.startMs * 1000L,
                     j.endMs * 1000L, run, sparkJob = true)
        nextId += 1
      }
    }

  def spans: Seq[Span] = done.toVector

  /** Self time of every span: its duration minus the union of the
    * intervals its children cover.
    */
  def selfSeconds: Map[Int, Double] = {
    val byParent = done.groupBy(_.parent)
    done.map { s =>
      val kids = byParent.getOrElse(s.id, Nil).map(c => (c.startUs max s.startUs, c.endUs min s.endUs))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L; var curS = Long.MinValue; var curE = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curE) { if (curE > curS) covered += curE - curS; curS = a; curE = b }
        else curE = curE max b
      }
      if (curE > curS) covered += curE - curS
      s.id -> math.max(0L, s.endUs - s.startUs - covered) / 1e6
    }.toMap
  }

  /** Total duration and total self time of the spans named `name`. */
  def total(name: String): Double = done.filter(_.name == name).map(_.seconds).sum
  def totalSelf(name: String): Double = {
    val self = selfSeconds
    done.filter(_.name == name).map(s => self(s.id)).sum
  }

  /** Writes every span as one JSON object per line. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val self = selfSeconds
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try done.sortBy(_.startUs).foreach { s =>
      out.println(Json.obj(Seq(
        "run" -> Json.str(s.run), "id" -> s.id.toString, "parent" -> s.parent.toString,
        "name" -> Json.str(s.name), "start_us" -> s.startUs.toString,
        "end_us" -> s.endUs.toString, "self_s" -> Json.num(self(s.id)),
        "spark_job" -> s.sparkJob.toString)))
    } finally out.close()
  }
}

/** SparkListener that keeps per-job task statistics and attributes each
  * job to the library layer that submitted it, read from the job's call
  * site (the first `repro.spark.*` frame), so one `Sweep.run` splits into
  * its TrialRunner and RRSetJob jobs.
  */
final class JobCollector extends SparkListener {
  import JobCollector._

  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stageJob = mutable.HashMap.empty[Int, Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val site = e.stageInfos.map(_.details).mkString("\n")
    val (layer, method) = CallSite.findFirstMatchIn(site)
      .map(m => (s"spark.${m.group(1)}", m.group(2))).getOrElse(("other", "job"))
    jobs(e.jobId) = new Job(e.jobId, layer, method, e.time)
    e.stageIds.foreach(stageJob(_) = e.jobId)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach { j =>
      j.endMs = e.time
      j.succeeded = e.jobResult == JobSucceeded
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageJob.get(e.stageId).flatMap(jobs.get).foreach { j =>
      j.tasks += 1
      if (e.reason != TaskSuccess) j.failedTasks += 1
      val m = e.taskMetrics
      if (m != null) {
        j.runMs += m.executorRunTime
        j.deserMs += m.executorDeserializeTime
        j.gcMs += m.jvmGCTime
        j.resultBytes += m.resultSize
        j.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** All jobs so far, once the listener bus has delivered every event
    * posted before the call (events arrive asynchronously).
    */
  def settled(sc: SparkContext): Seq[Job] = {
    ListenerBusAccess.drain(sc)
    synchronized(jobs.values.toVector)
  }
}

object JobCollector {
  private val CallSite = """repro\.spark\.(TrialRunner|RRSetJob)\$?\.([A-Za-z]+)""".r

  final class Job(val id: Int, val layer: String, val method: String, val startMs: Long) {
    @volatile var endMs: Long = -1L
    var succeeded: Boolean = true
    var tasks: Int = 0
    var failedTasks: Int = 0
    val runMs: ArrayBuffer[Long] = ArrayBuffer.empty
    var deserMs: Long = 0L
    var gcMs: Long = 0L
    var resultBytes: Long = 0L
    var shuffleBytes: Long = 0L

    def wallMs: Long = endMs - startMs
    /** Job wall time not spent in its longest task: scheduling, broadcast,
      * serialization and result handling on the driver.
      */
    def overheadMs: Double = wallMs - (if (runMs.isEmpty) 0L else runMs.max)
  }
}
