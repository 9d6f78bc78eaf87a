package repro.jobs

import repro.exp.Tables

/** Prints one of the paper's evaluation tables (3–9) as `[tableN]` rows,
  * computed by `repro.exp.Tables` from `BenchPlan` and `SweepStore`.
  *
  * Run: `spark-submit --class repro.jobs.Table <jar> <table number>`
  */
object Table {

  /** The table number in `args`; a usage error for anything else. */
  def parse(args: Array[String]): Int = args match {
    case Array(s) if s.toIntOption.exists(Tables.numbers.contains) => s.toInt
    case _ => throw new IllegalArgumentException(
      s"usage: Table <${Tables.numbers.mkString("|")}>, got: ${args.mkString(" ")}")
  }

  def main(args: Array[String]): Unit = {
    val table = parse(args)
    val spark = JobSession.create(s"table$table")
    try Tables.render(table, Tables.lines(spark, table)).foreach(println)
    finally spark.stop()
  }
}
