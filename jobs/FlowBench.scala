package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.{Defaults, FlowExperiment}

/** spark-submit entrypoint reproducing Tables 5–8 (and the Figure 11 bucket
  * breakdown) for one dataset.
  *
  * Usage: `spark-submit --class repro.jobs.FlowBench repro.jar <bitcoin|ctu13|prosper> [sf] [maxInteractions]`
  */
object FlowBench {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("bitcoin")
    val sf      = args.lift(1).map(_.toDouble).getOrElse(Defaults.sf(dataset))
    val cap     = args.lift(2).map(_.toInt).getOrElse(Defaults.maxInteractions)
    val spark   = SparkSession.builder.appName(s"repro-flow-bench-$dataset").getOrCreate()
    val report  = FlowExperiment.run(spark, FlowExperiment.Config(dataset, sf, cap))
    println(report.render)
    spark.stop()
  }
}
