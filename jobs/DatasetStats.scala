package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.NetworkGen
import repro.harness.{Defaults, Timing}

/** spark-submit entrypoint reproducing Table 4 (dataset characteristics) for
  * the three synthetic stand-in networks.
  *
  * Usage: `spark-submit --class repro.jobs.DatasetStats repro.jar [sfBitcoin sfCtu sfProsper]`
  */
object DatasetStats {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.appName("repro-dataset-stats").getOrCreate()
    val sfs = args.toSeq match {
      case Seq(a, b, c) => Map("bitcoin" -> a.toDouble, "ctu13" -> b.toDouble, "prosper" -> c.toDouble)
      case _            => Defaults.sf
    }
    val rows = NetworkGen.all.map { spec =>
      val df = NetworkGen.generate(spark, spec, sfs(spec.name))
      val r  = NetworkGen.stats(df).head()
      Seq(spec.name, s"sf=${sfs(spec.name)}", r.getLong(0).toString, r.getLong(1).toString,
          r.getLong(2).toString, r.getDouble(3).toString)
    }
    println("Table 4: Characteristics of (synthetic) datasets")
    println(Timing.table(Seq("Dataset", "scale", "#nodes", "#edges", "#interactions", "avg flow"), rows))
    spark.stop()
  }
}
