package repro.bench

import repro.SparkSpec
import repro.harness.{Defaults, FlowExperiment}

/** Tables 5–8 — flow computation on extracted subgraphs: Greedy vs LP vs
  * Pre vs PreSim, per class A/B/C and per interaction bucket (Fig. 11's
  * data). One suite per paper table; each prints its dataset's Table 5 row
  * too. Every subgraph's LP/Pre/PreSim flows are cross-checked against the
  * time-expanded Dinic oracle while benchmarking (`mismatches` must be 0).
  */
abstract class FlowBenchBase(dataset: String) extends SparkSpec {

  test(s"flow computation methods on $dataset subgraphs") {
    val cfg = FlowExperiment.Config(dataset, Defaults.sf(dataset), Defaults.maxInteractions)
    val report = FlowExperiment.run(spark, cfg)
    println("\n=== " + s"Tables 5-8 block for $dataset" + " ===")
    println(report.render)
    assert(report.rows.nonEmpty, "no subgraphs extracted — scale factor too small")
    assert(report.mismatches === 0L, "flow method disagreement detected")
    // The paper's headline shape: PreSim is at least as fast as LP on average.
    val avgLp  = report.rows.map(_.tLpNs).sum / report.rows.size
    val avgSim = report.rows.map(_.tPreSimNs).sum / report.rows.size
    assert(avgSim <= avgLp, s"PreSim ($avgSim ns) slower than LP ($avgLp ns) on average")
  }
}

/** Table 6 — Bitcoin-like subgraphs. */
class Table6BitcoinFlowBench extends FlowBenchBase("bitcoin")

/** Table 7 — CTU-13-like subgraphs. */
class Table7CtuFlowBench extends FlowBenchBase("ctu13")

/** Table 8 — Prosper-like subgraphs. */
class Table8ProsperFlowBench extends FlowBenchBase("prosper")
