package repro.harness

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.data.{NetworkGen, SubgraphExtractor}

/** The flow-computation experiment of Section 6.2 (Tables 5, 6, 7, 8 and the
  * bucket breakdown behind Figure 11).
  *
  * For one (synthetic) network: extract the per-seed cycle subgraphs, then
  * time the four methods — Greedy, LP, Pre, PreSim — on every subgraph, in
  * parallel across subgraphs via `Dataset.mapPartitions` on executors.
  * Subgraphs are labeled class A/B/C like the paper and the report averages
  * runtimes over All and per class, plus per interaction-count bucket
  * (<100, 100–1000, >1000).
  *
  * Every subgraph's LP / Pre / PreSim flows are cross-checked against the
  * independent time-expanded Dinic solver — an end-to-end correctness gate
  * riding along with the benchmark (verification time is excluded from
  * reported numbers).
  */
object FlowExperiment {

  final case class Config(
      dataset: String,
      sf: Double,
      /** Discard subgraphs with more interactions (paper used 10K; our dense
        * simplex substrate motivates a lower default, DESIGN.md §3). */
      maxInteractions: Int = Defaults.maxInteractions,
      /** Measure at most this many subgraphs (deterministic sample). The
        * paper timed all 48.7K Bitcoin subgraphs with a C implementation;
        * sampling keeps the per-subgraph averages while bounding bench
        * wall-clock on the JVM. Non-positive = measure all. */
      maxSubgraphs: Int = 2500,
  )

  /** Per-subgraph measurement row. */
  final case class Row(
      seed: Int,
      interactions: Int,
      cls: String,
      greedyFlow: Double,
      maxFlow: Double,
      tGreedyNs: Long,
      tLpNs: Long,
      tPreNs: Long,
      tPreSimNs: Long,
  )

  final case class Report(
      dataset: String,
      sf: Double,
      netStats: (Long, Long, Long, Double), // nodes, edges, interactions, avg qty (Table 4)
      subgraphStats: (Long, Double, Double, Double), // Table 5
      rows: Seq[Row],
      mismatches: Long,
  ) {
    private def avgMs(rs: Seq[Row], f: Row => Long): String =
      if (rs.isEmpty) "-" else Timing.fmtMs(Timing.nsToMs(rs.map(f).sum / rs.size))

    private def tableFor(title: String, groups: Seq[(String, Seq[Row])]): String = {
      val header = Seq(title, "Greedy", "LP", "Pre", "PreSim")
      val body = groups.map { case (name, rs) =>
        Seq(s"$name (${rs.size})", avgMs(rs, _.tGreedyNs), avgMs(rs, _.tLpNs),
            avgMs(rs, _.tPreNs), avgMs(rs, _.tPreSimNs))
      }
      Timing.table(header, body)
    }

    def render: String = {
      val (nodes, edges, inters, avgQ) = netStats
      val (nSub, avgV, avgE, avgI)     = subgraphStats
      val byClass = Seq(
        "All"     -> rows,
        "Class A" -> rows.filter(_.cls == "A"),
        "Class B" -> rows.filter(_.cls == "B"),
        "Class C" -> rows.filter(_.cls == "C"),
      )
      val byBucket = Seq(
        "<100 inter"     -> rows.filter(_.interactions < 100),
        "100-1000 inter" -> rows.filter(r => r.interactions >= 100 && r.interactions <= 1000),
        ">1000 inter"    -> rows.filter(_.interactions > 1000),
      )
      s"""== Dataset $dataset (sf=$sf) ==
         |Table 4 row: #nodes=$nodes  #edges=$edges  #interactions=$inters  avg.flow=$avgQ
         |Table 5 row: #subgraphs=$nSub  avg#vertices=${f"$avgV%.2f"}  avg#edges=${f"$avgE%.2f"}  avg#interactions=${f"$avgI%.1f"}
         |
         |${tableFor(s"Runtime (msec), $dataset", byClass)}
         |
         |${tableFor("By #interactions", byBucket)}
         |verify mismatches: $mismatches
         |""".stripMargin
    }
  }

  /** Measure the four methods on one subgraph and count their disagreements
    * with the Dinic oracle. `g` is evaluated once per method inside its timed
    * call, so each method pays for its own graph build and lazy indexes
    * (time order, neighbour lists, topological order).
    */
  def measure(seed: Int, g: => FlowGraph): (Row, Long) = {
    val (gres, tG)  = Timing.timeNs(Greedy.flow(g))
    val (lpF, tLp)  = Timing.timeNs(FlowPipeline.lp(g))
    val (preO, tP)  = Timing.timeNs(FlowPipeline.pre(g))
    val (simO, tS)  = Timing.timeNs(FlowPipeline.preSim(g))
    val untimed     = g // the oracle's graph, also read for the row's size
    val dinicF      = FlowPipeline.dinic(untimed)
    val tol         = 1e-4 * math.max(1.0, math.abs(dinicF))
    val mism        = Seq(lpF, preO.flow, simO.flow).count(f => math.abs(f - dinicF) > tol) +
      (if (gres > dinicF + tol) 1 else 0)
    (Row(seed, untimed.interactionCount, preO.cls.name, gres, simO.flow, tG, tLp, tP, tS), mism.toLong)
  }

  def run(spark: SparkSession, cfg: Config): Report = {
    import spark.implicits._
    val spec = NetworkGen.byName(cfg.dataset)
    val net  = NetworkGen.generate(spark, spec, cfg.sf).cache()

    val statsRow = NetworkGen.stats(net).head()
    val netStats = (statsRow.getLong(0), statsRow.getLong(1), statsRow.getLong(2), statsRow.getDouble(3))

    val all: Dataset[SubgraphExtractor.Subgraph] =
      SubgraphExtractor.extract(net, cfg.maxInteractions).cache()
    val sgStats = SubgraphExtractor.stats(all) // Table 5 reports the full population
    val total   = sgStats._1
    val subgraphs =
      if (cfg.maxSubgraphs > 0 && total > cfg.maxSubgraphs)
        all.sample(withReplacement = false, cfg.maxSubgraphs.toDouble / total, seed = 42L)
      else all

    val measured = subgraphs.mapPartitions { it =>
      // JIT warm-up: exercise all methods once on the first subgraph of the
      // partition without recording (the paper's C baseline has no JIT).
      val buffered = it.buffered
      if (buffered.hasNext) measure(buffered.head.seed, buffered.head.toFlowGraph)
      buffered.map { sg => measure(sg.seed, sg.toFlowGraph) }
    }.collect()

    all.unpersist(); net.unpersist()
    Report(cfg.dataset, cfg.sf, netStats, sgStats, measured.map(_._1).toSeq, measured.map(_._2).sum)
  }
}
