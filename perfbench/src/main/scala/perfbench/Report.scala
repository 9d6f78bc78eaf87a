package perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** A named number with its unit. */
final case class Metric(name: String, value: Double, unit: String)

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile, q in (0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of nothing")
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.size).toInt - 1))
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

/** Counts operations and correctness checks, and which of them failed.
  * An operation that throws is a failure; so is a check that is false or
  * throws.
  */
final class Tally {
  private var attempted = 0L
  private var failedOps = 0L
  private var sparkTaskFailures = 0L
  val failedChecks: ArrayBuffer[String] = ArrayBuffer.empty

  def op[A](name: String)(body: => A): Option[A] = {
    attempted += 1
    try Some(body)
    catch {
      case NonFatal(e) =>
        failedOps += 1
        Console.err.println(s"[perfbench] operation $name failed: $e")
        None
    }
  }

  def check(name: String)(ok: => Boolean): Unit = {
    attempted += 1
    val passed = try ok catch { case NonFatal(e) => Console.err.println(s"[perfbench] $e"); false }
    if (!passed) {
      failedChecks += name
      Console.err.println(s"[perfbench] check failed: $name")
    }
  }

  /** Adds Spark tasks as attempted operations, `failed` of them failed. */
  def tasks(total: Long, failed: Long): Unit = { attempted += total; sparkTaskFailures += failed }

  def attemptedCount: Long = attempted
  def failedCount: Long = failedOps + sparkTaskFailures + failedChecks.size
  def correct: Boolean = failedChecks.isEmpty && failedOps == 0
}

/** Just enough JSON writing for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  /** Full-precision number; non-finite values have no JSON form. */
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"non-finite metric value $d")
    d.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
