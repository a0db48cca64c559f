package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.NetworkGen
import scala.collection.immutable.ListMap
import scala.jdk.CollectionConverters._

/** The repository benchmark.
  *
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]`
  *
  * A run sets up five times (Spark session, `NetworkGen.generate` with the
  * seed applied to the dataset's spec, cache) and reports the median set-up
  * time. Untimed warm-up passes follow for `WarmupSeconds`. It then repeats
  * passes of the workload for `--seconds` and reports medians over passes.
  * With `--trace 1` it alternates untraced and traced passes; the traced
  * ones give the per-layer metrics and the difference gives the tracing
  * overhead.
  *
  * The last line of standard output is the result as one JSON object; the
  * full result (config, every metric with its sample count, failures,
  * spans) goes to `--out`.
  */
object Main {

  /** A metric: name, value, unit, and the number of samples it summarises. */
  final case class Metric(name: String, value: Double, unit: String, n: Int)

  /** Metrics every workload reports on its last output line. */
  val EndToEnd: Seq[String] = Seq("setup_s", "total_s")
  val PerLayer: Seq[String] = Seq(
    "netgen.generate_ms",
    "spark.prepare.task_busy_s", "spark.prepare.shuffle_write_mb", "spark.prepare.shuffle_read_mb", "spark.prepare.tasks",
    "spark.query.task_busy_s", "spark.query.shuffle_write_mb", "spark.query.tasks",
    "trace.overhead_pct",
  )

  val SetupRepeats = 5

  /** Passes keep getting faster for three to five passes after the first
    * (JIT of Spark's planner and of the solvers); timed passes start after
    * this much warm-up.
    */
  val WarmupSeconds = 25

  /** Two per core of `local[4]`. The bench suites use 64; on these inputs
    * 64 makes every pass four times slower without moving more data.
    */
  val ShufflePartitions = 8

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Option[String], tiny: Boolean)

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def req(k: String) = m.getOrElse(k, sys.error(s"missing --$k"))
    Args(req("workload"), req("seed").toLong, req("seconds").toInt, req("trace") == "1", m.get("out"), tiny = false)
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val r = run(a)
    println(r.report)
    a.out.foreach(p => Files.write(Paths.get(p), r.resultJson.getBytes("UTF-8")))
    println(r.lastLine)
    System.out.flush()
  }

  final case class RunResult(
      config: Seq[(String, Any)],
      metrics: Seq[Metric],
      extended: Seq[Metric],
      attempted: Long,
      failures: Seq[String],
      spans: Seq[Span],
  ) {
    def correct: Boolean = failures.isEmpty

    def lastLine: String = Stats.json(ListMap(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failures.size.toLong,
      "metrics" -> ListMap(metrics.map(m => m.name -> ListMap("value" -> m.value, "unit" -> m.unit)): _*),
    ))

    def resultJson: String = Stats.json(ListMap(
      "config" -> ListMap(config: _*),
      "correct" -> correct, "attempted" -> attempted, "failed" -> failures.size.toLong,
      "failed_frac" -> failures.size.toDouble / math.max(1L, attempted),
      "failures" -> failures,
      "metrics" -> (metrics ++ extended).map(m => ListMap("name" -> m.name, "value" -> m.value, "unit" -> m.unit, "n" -> m.n)),
      "spans" -> spans.map(s => ListMap("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "req" -> s.req,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs)),
    )) + "\n"

    def report: String = {
      val rows = (metrics ++ extended).map(m => Seq(m.name, fmt(m.value), m.unit, m.n.toString))
      val w    = Seq("metric", "value", "unit", "n").indices.map(i => (rows :+ Seq("metric", "value", "unit", "n")).map(_(i).length).max)
      def line(r: Seq[String]) = r.zip(w).map { case (c, k) => c.padTo(k, ' ') }.mkString("  ")
      val head = config.map { case (k, v) => s"$k=$v" }.mkString(" ")
      val fails =
        if (failures.isEmpty) "failures: none"
        else s"failures (${failures.size}):\n" + failures.take(50).map("  " + _).mkString("\n")
      (Seq(head, line(Seq("metric", "value", "unit", "n"))) ++ rows.map(line) :+
        f"failed_frac ${failures.size.toDouble / math.max(1L, attempted)}%.6f (${failures.size}/$attempted)" :+ fails)
        .mkString("\n")
    }
  }

  private def fmt(v: Double): String = if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else f"$v%.6g"

  def cores: Int = math.min(Runtime.getRuntime.availableProcessors(), 4)

  def session(localDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("repro-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", localDir + "/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def oldGen = ManagementFactory.getMemoryPoolMXBeans.asScala.find(_.getName.contains("Old Gen"))

  /** Mutable tallies shared by the set-up, warm-up and measured passes. */
  final class Tally {
    var attempted = 0L
    val failures  = collection.mutable.ArrayBuffer.empty[String]
  }

  def run(a: Args): RunResult = {
    val w0       = Workloads.byName(a.workload)
    val w        = if (a.tiny) Workloads.tiny(w0) else w0
    val localDir = sys.props.getOrElse("perfbench.localDir", Paths.get(".bench_build", "spark-local").toAbsolutePath.toString)
    val spec     = w.spec(a.seed)
    val tally    = new Tally

    // ---- set-up, repeated; the last session is kept for measuring ----
    var spark: SparkSession = null
    var net: DataFrame      = null
    val setups              = collection.mutable.ArrayBuffer.empty[(Long, Long, Long)] // total, generate, rows
    for (_ <- 0 until SetupRepeats) {
      if (spark != null) { net.unpersist(); spark.stop() }
      val t0   = System.nanoTime()
      spark = session(localDir)
      val t1   = System.nanoTime()
      net = NetworkGen.generate(spark, spec, w.sf).cache()
      val rows = SparkStages.inStage(spark.sparkContext, "netgen")(net.count())
      val t2   = System.nanoTime()
      setups += ((t2 - t0, t2 - t1, rows))
    }
    // Untimed warm-up passes (JIT, Spark code generation); their failures count.
    val warmEnd = System.nanoTime() + WarmupSeconds * 1_000_000_000L
    var warmups = 0
    while (warmups == 0 || System.nanoTime() < warmEnd) {
      onePass(spark, net, w, new Tracer(0, enabled = false), 0, tally)
      warmups += 1
    }

    val passes = collection.mutable.ArrayBuffer.empty[PassOut]
    val traced = collection.mutable.ArrayBuffer.empty[PassOut]
    val layers = collection.mutable.ArrayBuffer.empty[Map[String, Double]]
    val spans  = collection.mutable.ArrayBuffer.empty[Span]
    val stages = if (a.trace) Some(new SparkStages) else None
    stages.foreach(spark.sparkContext.addSparkListener)

    System.gc()
    oldGen.foreach(_.resetPeakUsage())
    val deadline = System.nanoTime() + a.seconds * 1_000_000_000L
    var k        = 0
    while (passes.isEmpty || System.nanoTime() < deadline) {
      k += 1
      def untraced(): Unit = passes += onePass(spark, net, w, new Tracer(0, enabled = false), 0, tally)
      stages match {
        case None => untraced()
        case Some(st) =>
          // Alternate the order so a warm-up trend does not read as overhead.
          if (k % 2 == 1) untraced()
          st.takeTotals(spark.sparkContext)
          val tr          = new Tracer(k * 100_000, enabled = true)
          val out         = onePass(spark, net, w, tr, k * 100_000, tally)
          val sparkTotals = st.takeTotals(spark.sparkContext)
          val probed = if (w.isFlow) {
            val (counters, n, fails) = FlowBench.probe(spark, net, w)
            tally.attempted += n; tally.failures ++= fails
            counters
          } else Map.empty[String, Double]
          st.takeTotals(spark.sparkContext)
          traced += out
          layers += layerMetrics(w, out, tr, sparkTotals, probed)
          spans ++= tr.spans
          if (k % 2 == 0) untraced()
      }
    }
    val peakMb = oldGen.map(_.getPeakUsage.getUsed / 1e6).getOrElse(Double.NaN)
    net.unpersist()
    spark.stop()

    val setupS = Stats.median(setups.map(_._1 / 1e9).toSeq)
    val n      = passes.size
    def med(f: PassOut => Double): Double = Stats.median(passes.map(f).toSeq)
    val e2e = Seq(
      Metric("setup_s", setupS, "s", setups.size),
      Metric("total_s", med(_.totalNs / 1e9), "s", n),
    )
    // Not on the result line: whether G1 has collected the old generation
    // inside the window makes it bimodal (460 vs 720 MB on pattern-prosper).
    val peakHeap = Metric("peak_heap_mb", peakMb, "MB", 1)
    val extended = (peakHeap +: workloadMetrics(w, passes.toSeq, tally)) ++ (
      if (!a.trace) Nil
      else {
        val untracedTotal = med(_.totalNs.toDouble)
        val tracedTotal   = Stats.median(traced.map(_.totalNs.toDouble).toSeq)
        val common = Seq(
          Metric("netgen.generate_ms", Stats.median(setups.map(_._2 / 1e6).toSeq), "ms", setups.size),
          Metric("netgen.interactions", setups.last._3.toDouble, "count", 1),
          Metric("trace.overhead_pct", 100.0 * (tracedTotal - untracedTotal) / untracedTotal, "%", traced.size),
        )
        val names = layers.flatMap(_.keys).distinct.toSeq
        common ++ names.map { nm =>
          val xs = layers.flatMap(_.get(nm)).toSeq
          Metric(nm, Stats.median(xs), unitOf(nm), xs.size)
        } ++ tableCells(passes.toSeq)
      })
    val shown = if (a.trace) PerLayer.map(nm => extended.find(_.name == nm).get) else e2e
    val rest  = (if (a.trace) e2e else Nil) ++ extended.filterNot(m => shown.exists(_.name == m.name))

    val rt = Runtime.getRuntime
    val config = w.describe ++ Seq(
      "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> (if (a.trace) 1 else 0), "tiny" -> a.tiny,
      "master" -> s"local[$cores]", "shuffle_partitions" -> ShufflePartitions, "nproc" -> rt.availableProcessors(),
      "max_heap_mb" -> rt.maxMemory() / 1000000, "java" -> System.getProperty("java.version"),
      "commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
      "source_hash" -> sys.props.getOrElse("perfbench.sourceHash", "unknown"),
      "passes" -> n, "traced_passes" -> traced.size, "setups" -> setups.size, "warmup_passes" -> warmups,
      "setup_s_each" -> setups.map(_._1 / 1e9).toSeq,
      "pass_total_s" -> passes.map(_.totalNs / 1e9).toSeq,
      "pass_prepare_s" -> passes.map(_.prepareNs / 1e9).toSeq,
      "pass_query_s" -> passes.map(_.queryNs / 1e9).toSeq,
    )
    RunResult(config, shown, rest, tally.attempted, tally.failures.toSeq, spans.toSeq)
  }

  /** A pass of either kind, reduced to what the run aggregates. */
  final case class PassOut(totalNs: Long, prepareNs: Long, queryNs: Long, flow: Option[FlowBench.Pass], pattern: Option[PatternBench.Pass])

  def onePass(spark: SparkSession, net: DataFrame, w: Workloads.Workload, tr: Tracer, origin: Int, tally: Tally): PassOut =
    if (w.isFlow) {
      val p = FlowBench.pass(spark, net, w, tr, origin)
      tally.attempted += p.attempted; tally.failures ++= p.failures
      PassOut(p.totalNs, p.extractNs, p.solveNs, Some(p), None)
    } else {
      val p = PatternBench.pass(spark, net, w, tr)
      tally.attempted += p.attempted; tally.failures ++= p.failures
      PassOut(p.totalNs, p.precomputeNs, p.pbNs + p.gbNs, None, Some(p))
    }

  private def unitOf(name: String): String =
    if (name.endsWith("_ms") || name.endsWith(".ms")) "ms"
    else if (name.endsWith("_s")) "s"
    else if (name.endsWith("_mb")) "MB"
    else if (name.endsWith("_ratio")) "ratio"
    else "count"

  /** The workload's own end-to-end figures, by the names of the paper's
    * experiment: extraction and solving for flow, precompute/PB/GB for
    * pattern search.
    */
  def workloadMetrics(w: Workloads.Workload, passes: Seq[PassOut], tally: Tally): Seq[Metric] = {
    val n = passes.size
    def med(f: PassOut => Double) = Stats.median(passes.map(f))
    val common = Seq(Metric("failed_frac", tally.failures.size.toDouble / math.max(1L, tally.attempted), "ratio", tally.attempted.toInt))
    if (w.isFlow) {
      val fps = passes.flatMap(_.flow)
      def latencies(m: String): Seq[Metric] = {
        val i  = FlowBench.Methods.indexOf(m)
        val xs = fps.flatMap(_.rows.map(_.ns(i) / 1e6))
        Metric(s"${m}_p50_ms", Stats.median(xs), "ms", xs.size) +:
          Stats.supportedPercentile(xs.size).toSeq.map { p =>
            Metric(s"${m}_p${if (p == p.floor) p.toInt.toString else p.toString}_ms", Stats.quantile(xs, p / 100), "ms", xs.size)
          }
      }
      Seq(
        Metric("extract_s", med(_.prepareNs / 1e9), "s", n),
        Metric("solve_sgps", Stats.median(fps.map(p => p.rows.size / (p.solveNs / 1e9))), "1/s", n),
        Metric("subgraphs", fps.head.table5._1.toDouble, "count", 1),
        Metric("timed_subgraphs", fps.head.rows.size.toDouble, "count", 1),
      ) ++ latencies("presim") ++ latencies("lp") ++ common
    } else {
      val pps = passes.flatMap(_.pattern)
      Seq(
        Metric("precompute_s", med(_.prepareNs / 1e9), "s", n),
        Metric("pb_s", Stats.median(pps.map(_.pbNs / 1e9)), "s", n),
        Metric("gb_s", Stats.median(pps.map(_.gbNs / 1e9)), "s", n),
      ) ++ common
    }
  }

  /** Per-layer figures of one traced pass. */
  def layerMetrics(w: Workloads.Workload, out: PassOut, tr: Tracer, sparkTotals: Map[String, SparkStages.Totals],
                   probed: Map[String, Double]): Map[String, Double] = {
    val spans = tr.totals
    def ms(span: String) = spans.get(span).map(_._1).getOrElse(0.0)
    def calls(span: String) = spans.get(span).map(_._2.toDouble).getOrElse(0.0)
    def stage(prefix: String, groups: Seq[String]): Map[String, Double] = {
      val ts = groups.flatMap(sparkTotals.get)
      Map(
        s"spark.$prefix.task_busy_s"      -> ts.map(_.busyMs).sum / 1e3,
        s"spark.$prefix.shuffle_write_mb" -> ts.map(_.shuffleWriteBytes).sum / 1e6,
        s"spark.$prefix.shuffle_read_mb"  -> ts.map(_.shuffleReadBytes).sum / 1e6,
        s"spark.$prefix.tasks"            -> ts.map(_.tasks).sum.toDouble,
      )
    }
    val perStage = (if (w.isFlow) Seq("extract", "solve") else Seq("tables", "pb", "gb")).flatMap(g => stage(g, Seq(g)))
    val generic  = if (w.isFlow) stage("prepare", Seq("extract")) ++ stage("query", Seq("solve"))
                   else stage("prepare", Seq("tables")) ++ stage("query", Seq("pb", "gb"))
    val specific: Map[String, Double] =
      if (w.isFlow) {
        val p = out.flow.get
        val layer = Seq("flowgraph.build" -> ("flowgraph.build_ms", "flowgraph.builds"),
            "solubility" -> ("solubility.ms", "solubility.calls"), "greedy" -> ("greedy.ms", "greedy.calls"),
            "preprocess" -> ("preprocess.ms", "preprocess.calls"), "simplify" -> ("simplify.ms", "simplify.calls"),
            "maxflowlp" -> ("maxflowlp.ms", "maxflowlp.calls"),
            "maxflowlp.pre" -> ("maxflowlp.pre_ms", "maxflowlp.pre_calls"),
            "maxflowlp.presim" -> ("maxflowlp.presim_ms", "maxflowlp.presim_calls"),
            "timeexpanded" -> ("timeexpanded.ms", "timeexpanded.calls"))
          .flatMap { case (s, (m, c)) => Seq(m -> ms(s), c -> calls(s)) }
        val counters = Seq("preprocess.removed_interactions", "preprocess.removed_edges", "preprocess.removed_vertices",
            "simplify.chains_reduced", "simplify.removed_interactions", "maxflowlp.variables", "maxflowlp.constraints")
          .map(c => c -> tr.counters(c))
        val classes = Seq("A", "B", "C").map(c => s"flowpipeline.class_$c" -> p.rows.count(_.cls == c).toDouble)
        val extractMs = ms("extractor.extract")
        val extractor = probed ++ Map(
          "extractor.tagged_ms" -> (probed("extractor.tagged_total_ms") - probed("extractor.cycle_arcs_ms")),
          "extractor.group_ms"  -> (extractMs - probed("extractor.tagged_total_ms")),
          "extractor.extract_ms" -> extractMs,
        ) - "extractor.tagged_total_ms"
        (layer ++ counters ++ classes).toMap ++ extractor
      } else {
        val p = out.pattern.get
        p.tableNs.map { case (t, ns) => s"pathtables.${t}_ms" -> ns / 1e6 } ++
          p.tableRows.map { case (t, r) => s"pathtables.${t}_rows" -> r.toDouble } ++
          p.rows.map(r => s"patternenum.${r.pattern}_ms" -> r.pbNs / 1e6) ++
          p.rows.map(r => s"graphbrowsing.${r.pattern}_ms" -> r.gbNs / 1e6) ++
          p.rows.map(r => s"graphbrowsing.${r.pattern}_instances" -> r.gbInstances.toDouble) +
          ("graphbrowsing.adjacency_ms" -> p.adjacencyNs / 1e6)
      }
    (perStage ++ generic).toMap ++ specific
  }

  /** Tables 6–8 cells: average per-subgraph latency per method and class,
    * from the untraced passes.
    */
  def tableCells(passes: Seq[PassOut]): Seq[Metric] = {
    val rows = passes.flatMap(_.flow).flatMap(_.rows)
    if (rows.isEmpty) Nil
    else for {
      (m, i) <- Seq("greedy", "lp", "pre", "presim").zipWithIndex
      cls    <- Seq("all", "A", "B", "C")
      rs      = if (cls == "all") rows else rows.filter(_.cls == cls)
      if rs.nonEmpty
    } yield Metric(s"table.$m.${cls}_ms", rs.map(_.ns(i) / 1e6).sum / rs.size, "ms", rs.size)
  }
}
