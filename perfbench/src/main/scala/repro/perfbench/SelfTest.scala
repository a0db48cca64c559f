package repro.perfbench

import java.nio.file.{Files, Paths}
import org.json4s._
import org.json4s.jackson.JsonMethods
import repro.data.NetworkGen
import repro.harness.FlowExperiment

/** The benchmark's own check, at tiny scale:
  *
  *  1. the flow pass reproduces `FlowExperiment.run`: the Table 5 row, the
  *     class of every subgraph and its greedy and maximum flows — untraced
  *     and traced (the traced pass composes Pre/PreSim from their steps);
  *  2. every run emits exactly the metrics `BENCHMARK.json` names, with their
  *     units, plus the workload's own figures;
  *  3. `failed_frac` is 0 on every workload.
  *
  * `SelfTest <path to BENCHMARK.json>`; exits non-zero on any failure.
  */
object SelfTest {

  private val problems = collection.mutable.ArrayBuffer.empty[String]
  private def check(ok: Boolean, what: => String): Unit = if (!ok) { problems += what; Console.err.println("FAIL " + what) }

  def main(argv: Array[String]): Unit = {
    implicit val formats: Formats = DefaultFormats
    val bench = JsonMethods.parse(new String(Files.readAllBytes(Paths.get(argv(0))), "UTF-8"))
    def names(key: String) = (bench \ key).extract[List[Map[String, Any]]].map(m => m("name").toString -> m("unit").toString)
    val endToEnd = names("end_to_end")
    val perLayer = names("per_layer")
    check(endToEnd.map(_._1) == Main.EndToEnd, s"BENCHMARK.json end_to_end ${endToEnd.map(_._1)} != ${Main.EndToEnd}")
    check(perLayer.map(_._1) == Main.PerLayer, s"BENCHMARK.json per_layer ${perLayer.map(_._1)} != ${Main.PerLayer}")

    flowMatchesExperiment("ctu13")
    flowMatchesExperiment("bitcoin")

    for (w <- Workloads.all; trace <- Seq(false, true)) {
      val r = Main.run(Main.Args(w.name, 7L, seconds = 1, trace = trace, out = None, tiny = true))
      val expected = if (trace) perLayer else endToEnd
      check(r.metrics.map(m => m.name -> m.unit) == expected,
        s"${w.name} trace=$trace emitted ${r.metrics.map(m => m.name -> m.unit)}, BENCHMARK.json names $expected")
      check(r.metrics.forall(m => !m.value.isNaN), s"${w.name} trace=$trace: NaN metric")
      val own =
        if (w.isFlow) Seq("extract_s", "solve_sgps", "presim_p50_ms", "lp_p50_ms", "failed_frac") ++
          (if (trace) Seq("extractor.cycle_arcs_ms", "extractor.kept_ratio", "flowgraph.build_ms", "solubility.ms",
            "greedy.ms", "preprocess.ms", "simplify.ms", "maxflowlp.ms", "maxflowlp.presim_ms", "timeexpanded.ms",
            "flowpipeline.class_A", "spark.extract.task_busy_s", "spark.solve.tasks", "table.presim.all_ms") else Nil)
        else Seq("precompute_s", "pb_s", "gb_s", "failed_frac") ++
          (if (trace) Seq("pathtables.l3_ms", "pathtables.c2_rows", "patternenum.P6_ms", "graphbrowsing.adjacency_ms",
            "graphbrowsing.P3_instances", "spark.tables.task_busy_s", "spark.gb.tasks") else Nil)
      own.foreach(nm => check(r.extended.exists(_.name == nm), s"${w.name} trace=$trace: missing $nm"))
      check(r.failures.isEmpty && r.attempted > 0,
        s"${w.name} trace=$trace: failed_frac ${r.failures.size}/${r.attempted}: ${r.failures.take(5)}")
    }

    if (problems.isEmpty) println("selftest: ok")
    else { println(s"selftest: ${problems.size} failure(s)"); sys.exit(1) }
  }

  /** Check 1: one untraced and one traced pass against `FlowExperiment.run`
    * on the same network, every subgraph timed.
    */
  private def flowMatchesExperiment(dataset: String): Unit = {
    val w     = Workloads.tiny(Workloads.all.find(_.dataset == dataset).get).copy(sample = 0)
    val spark = Main.session(Paths.get(".bench_build", "spark-local").toAbsolutePath.toString)
    try {
      val report = FlowExperiment.run(spark, FlowExperiment.Config(dataset, w.sf, w.maxInteractions, maxSubgraphs = 0))
      val net    = NetworkGen.generate(spark, NetworkGen.byName(dataset), w.sf).cache()
      for (traced <- Seq(false, true)) {
        val p    = FlowBench.pass(spark, net, w, new Tracer(0, traced), 0)
        val what = s"$dataset traced=$traced"
        check(p.failures.isEmpty, s"$what: failures ${p.failures.take(5)}")
        check(p.table5 == report.subgraphStats, s"$what: Table 5 row ${p.table5} != ${report.subgraphStats}")
        val mine = p.rows.map(r => r.seed -> r).toMap
        check(mine.keySet == report.rows.map(_.seed).toSet, s"$what: subgraph seeds differ")
        report.rows.foreach { e =>
          mine.get(e.seed).foreach { r =>
            check(r.cls == e.cls, s"$what seed ${e.seed}: class ${r.cls} != ${e.cls}")
            check(r.flows(0) == e.greedyFlow, s"$what seed ${e.seed}: greedy ${r.flows(0)} != ${e.greedyFlow}")
            check(r.flows(3) == e.maxFlow, s"$what seed ${e.seed}: presim ${r.flows(3)} != ${e.maxFlow}")
          }
        }
        check(report.rows.groupBy(_.cls).view.mapValues(_.size).toMap == p.rows.groupBy(_.cls).view.mapValues(_.size).toMap,
          s"$what: class counts differ")
      }
      check(report.mismatches == 0, s"$dataset: FlowExperiment reports ${report.mismatches} mismatches")
      net.unpersist()
    } finally spark.stop()
  }
}
