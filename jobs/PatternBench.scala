package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.{Defaults, PatternExperiment}

/** spark-submit entrypoint reproducing Tables 9–11 (pattern search, GB vs
  * PB) for one dataset.
  *
  * Usage: `spark-submit --class repro.jobs.PatternBench repro.jar <bitcoin|ctu13|prosper> [sf]`
  */
object PatternBench {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("bitcoin")
    val sf      = args.lift(1).map(_.toDouble).getOrElse(Defaults.sf(dataset))
    val spark   = SparkSession.builder.appName(s"repro-pattern-bench-$dataset").getOrCreate()
    val report  = PatternExperiment.run(spark, PatternExperiment.Config(dataset, sf))
    println(report.render)
    spark.stop()
  }
}
