package repro.perfbench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core._
import repro.data.SubgraphExtractor
import repro.data.SubgraphExtractor.Subgraph
import repro.maxflow.TimeExpanded
import scala.util.control.NonFatal

/** One pass of a flow workload: the steps of `FlowExperiment.run` after the
  * network exists — `SubgraphExtractor.extract` and its Table 5 row, then
  * Greedy, LP, Pre, PreSim and the time-expanded oracle on every sampled
  * subgraph, across Spark tasks — each stage timed on its own.
  *
  * Untraced passes call the program's entry points (`FlowPipeline.*`).
  * Traced passes compose Pre and PreSim from their public steps so each step
  * gets a span; `check` asserts that the composition gives the program's
  * flow and class on every subgraph.
  */
object FlowBench {

  val Methods: Vector[String] = Vector("greedy", "lp", "pre", "presim", "oracle")

  /** Tasks of the solve stage: enough that the heavy class-C subgraphs
    * spread over the cores instead of making one task the straggler.
    */
  val SolveTasks = 32
  private val Oracle          = 4

  /** One subgraph through every method: flows and latencies (from the
    * subgraph's interactions, graph build included) in `Methods` order.
    */
  final case class Solved(seed: Int, cls: String, flows: Vector[Double], ns: Vector[Long])

  final case class TaskOut(rows: Vector[Solved], failures: Vector[String], spans: Vector[Span], counters: Map[String, Double])

  final case class Pass(
      extractNs: Long,
      solveNs: Long,
      totalNs: Long,
      table5: (Long, Double, Double, Double),
      rows: Seq[Solved],
      attempted: Long,
      failures: Seq[String],
  )

  /** `FlowExperiment`'s tolerance for agreeing with the oracle. */
  def tolerance(oracle: Double): Double = 1e-4 * math.max(1.0, math.abs(oracle))

  private def build(sg: Subgraph, tr: Tracer): FlowGraph =
    if (!tr.enabled) sg.toFlowGraph
    else tr.span("flowgraph.build") {
      val g = sg.toFlowGraph
      g.interactions; g.topologicalOrder
      g
    }

  /** `FlowPipeline.pre`/`preSim` from their steps, one span per step. */
  def composed(g: FlowGraph, simplify: Boolean, tr: Tracer): (Double, String) = {
    def soluble(x: FlowGraph) = tr.span("solubility")(Solubility.solvableByGreedy(x))
    def greedy(x: FlowGraph)  = tr.span("greedy")(Greedy.run(x).flow)
    def lp(x: FlowGraph)      = tr.span(if (simplify) "maxflowlp.presim" else "maxflowlp.pre")(MaxFlowLP.solve(x)).flow
    if (soluble(g)) (greedy(g), "A")
    else {
      val p = tr.span("preprocess")(Preprocess.run(g))
      tr.count("preprocess.removed_interactions", p.removedInteractions)
      tr.count("preprocess.removed_edges", p.removedEdges)
      tr.count("preprocess.removed_vertices", p.removedVertices)
      if (p.zeroFlow) (0.0, "B")
      else if (soluble(p.graph)) (greedy(p.graph), "B")
      else if (!simplify) (lp(p.graph), "C")
      else {
        val s = tr.span("simplify")(Simplify.run(p.graph))
        tr.count("simplify.chains_reduced", s.chainsReduced)
        tr.count("simplify.removed_interactions", s.removedInteractions)
        if (soluble(s.graph)) (greedy(s.graph), "C") else (lp(s.graph), "C")
      }
    }
  }

  /** Every method on a fresh graph of `sg`, each call isolated: an exception
    * (a `StackOverflowError` from the recursive Dinic included) or a
    * disagreement with the oracle becomes a failure naming the seed.
    */
  def solveOne(sg: Subgraph, tr: Tracer, failures: collection.mutable.Builder[String, Vector[String]]): Solved = {
    tr.req = sg.seed.toString
    val flows = Array.fill(Methods.size)(Double.NaN)
    val ns    = new Array[Long](Methods.size)
    var cls   = "?"
    def run(i: Int)(f: FlowGraph => Double): Unit = {
      val t0 = System.nanoTime()
      try flows(i) = tr.span("method." + Methods(i))(f(build(sg, tr)))
      catch {
        case e: StackOverflowError => failures += s"seed ${sg.seed} ${Methods(i)}: StackOverflowError"
        case NonFatal(e)           => failures += s"seed ${sg.seed} ${Methods(i)}: $e"
      }
      ns(i) = System.nanoTime() - t0
    }
    run(0)(g => if (tr.enabled) tr.span("greedy")(Greedy.run(g).flow) else FlowPipeline.greedy(g))
    run(1) { g =>
      if (!tr.enabled) FlowPipeline.lp(g)
      else {
        val r = tr.span("maxflowlp")(MaxFlowLP.solve(g))
        tr.count("maxflowlp.variables", r.numVariables)
        tr.count("maxflowlp.constraints", r.numConstraints)
        r.flow
      }
    }
    run(2) { g =>
      val (f, c) = if (tr.enabled) composed(g, simplify = false, tr) else { val o = FlowPipeline.pre(g); (o.flow, o.cls.name) }
      cls = c; f
    }
    run(3)(g => if (tr.enabled) composed(g, simplify = true, tr)._1 else FlowPipeline.preSim(g).flow)
    run(4)(g => if (tr.enabled) tr.span("timeexpanded")(TimeExpanded.maxFlow(g)) else FlowPipeline.dinic(g))

    val oracle = flows(Oracle)
    if (!oracle.isNaN) {
      val tol = tolerance(oracle)
      for (i <- 1 to 3 if !flows(i).isNaN && math.abs(flows(i) - oracle) > tol)
        failures += s"seed ${sg.seed} ${Methods(i)}: flow ${flows(i)} != oracle $oracle"
      if (!flows(0).isNaN && flows(0) > oracle + tol)
        failures += s"seed ${sg.seed} greedy: flow ${flows(0)} > oracle $oracle"
    }
    Solved(sg.seed, cls, flows.toVector, ns.toVector)
  }

  /** The timed subgraph sample: `FlowExperiment`'s deterministic sample. */
  def sampled(all: Dataset[Subgraph], total: Long, sample: Int): Dataset[Subgraph] =
    if (sample > 0 && total > sample) all.sample(withReplacement = false, sample.toDouble / total, seed = 42L)
    else all

  /** One pass: extract, then solve the sample. `tr` receives the stage
    * spans and, when enabled, every task's spans and counters.
    */
  def pass(spark: SparkSession, net: DataFrame, w: Workloads.Workload, tr: Tracer, origin: Int): Pass = {
    val sc     = spark.sparkContext
    val traced = tr.enabled
    val t0     = System.nanoTime()
    val (all, table5) = SparkStages.inStage(sc, "extract") {
      tr.span("extractor.extract") {
        val all = SubgraphExtractor.extract(net, w.maxInteractions).cache()
        (all, SubgraphExtractor.stats(all))
      }
    }
    val t1 = System.nanoTime()
    val outs = SparkStages.inStage(sc, "solve") {
      tr.span("solve") {
        sampled(all, table5._1, w.sample).rdd.repartition(SolveTasks).mapPartitionsWithIndex { (pid, it) =>
          val ttr  = new Tracer(origin + pid + 1, traced)
          val fail = Vector.newBuilder[String]
          val rows = it.map(sg => solveOne(sg, ttr, fail)).toVector
          Iterator.single(TaskOut(rows, fail.result(), ttr.spans.toVector, ttr.counters.toMap))
        }.collect()
      }
    }
    val t2 = System.nanoTime()
    all.unpersist()
    outs.foreach(o => tr.absorb(o.spans, o.counters))
    val rows = outs.flatMap(_.rows).toSeq
    Pass(t1 - t0, t2 - t1, t2 - t0, table5, rows, rows.size.toLong * Methods.size, outs.flatMap(_.failures).toSeq)
  }

  /** Extraction stage probes for the traced run, outside the timed pass:
    * the nested extraction actions timed one by one, so the stage self
    * times are differences; plus the row counts behind the wasted-work
    * ratio. Also asserts the traced composition against the program.
    */
  def probe(spark: SparkSession, net: DataFrame, w: Workloads.Workload): (Map[String, Double], Long, Seq[String]) = {
    val sc = spark.sparkContext
    SparkStages.inStage(sc, "probe") {
      val arcs                 = SubgraphExtractor.cycleArcs(net)
      val (arcRows, arcNs)     = Stats.timeNs(arcs.count())
      val tagged               = SubgraphExtractor.taggedInteractions(net, w.maxInteractions)
      val (taggedRows, tagNs)  = Stats.timeNs(tagged.count())
      val joinedRows           = arcs.join(net, Seq("src", "dst")).count()
      val seeds                = arcs.select("seed").distinct().count()
      val all                  = SubgraphExtractor.extract(net, w.maxInteractions).cache()
      val total                = all.count()
      val checks = sampled(all, total, w.sample).rdd.mapPartitions { it =>
        val off  = new Tracer(0, enabled = false)
        val fail = Vector.newBuilder[String]
        var n    = 0L
        it.foreach { sg =>
          for (simplify <- Seq(false, true)) {
            n += 1
            val name = if (simplify) "presim" else "pre"
            try {
              val (f, c) = composed(sg.toFlowGraph, simplify, off)
              val o      = if (simplify) FlowPipeline.preSim(sg.toFlowGraph) else FlowPipeline.pre(sg.toFlowGraph)
              if (c != o.cls.name || math.abs(f - o.flow) > 1e-9 * math.max(1.0, math.abs(o.flow)))
                fail += s"seed ${sg.seed} composed $name: ($f, $c) != FlowPipeline ($o)"
            } catch {
              case e: StackOverflowError => fail += s"seed ${sg.seed} composed $name: StackOverflowError"
              case NonFatal(e)           => fail += s"seed ${sg.seed} composed $name: $e"
            }
          }
        }
        Iterator.single((n, fail.result()))
      }.collect()
      all.unpersist()
      val counters = Map(
        "extractor.cycle_arcs_ms"   -> arcNs / 1e6,
        "extractor.tagged_total_ms" -> tagNs / 1e6,
        "extractor.cycle_arcs_rows" -> arcRows.toDouble,
        "extractor.joined_rows"     -> joinedRows.toDouble,
        "extractor.tagged_rows"     -> taggedRows.toDouble,
        "extractor.kept_ratio"      -> (if (joinedRows == 0) 0.0 else taggedRows.toDouble / joinedRows),
        "extractor.subgraphs"       -> total.toDouble,
        "extractor.seeds_dropped"   -> (seeds - total).toDouble,
      )
      (counters, checks.map(_._1).sum, checks.flatMap(_._2).toSeq)
    }
  }
}
