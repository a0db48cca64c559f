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

  val header: Seq[String] = Seq("Dataset", "scale", "#nodes", "#edges", "#interactions", "avg flow")

  /** One Table 4 row per dataset, each network generated at `sfs(name)`. */
  def rows(spark: SparkSession, sfs: Map[String, Double]): Seq[Seq[String]] =
    NetworkGen.all.map { spec =>
      val sf = sfs(spec.name)
      val r  = NetworkGen.stats(NetworkGen.generate(spark, spec, sf)).head()
      Seq(spec.name, s"sf=$sf", r.getLong(0).toString, r.getLong(1).toString,
          r.getLong(2).toString, f"${r.getDouble(3)}%.2f")
    }

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.appName("repro-dataset-stats").getOrCreate()
    val sfs = args.toSeq match {
      case Seq(a, b, c) => Map("bitcoin" -> a.toDouble, "ctu13" -> b.toDouble, "prosper" -> c.toDouble)
      case _            => Defaults.sf
    }
    println("Table 4: Characteristics of (synthetic) datasets")
    println(Timing.table(header, rows(spark, sfs)))
    spark.stop()
  }
}
