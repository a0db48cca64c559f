package repro.bench

import repro.SparkSpec
import repro.harness.{Defaults, PatternExperiment}

/** Tables 9–11 — pattern search: GB (distributed backtracking) vs PB
  * (precomputed path tables + joins), instances and average flows per
  * pattern. One suite per paper table.
  */
abstract class PatternBenchBase(dataset: String) extends SparkSpec {

  test(s"pattern search on $dataset") {
    val report = PatternExperiment.run(spark,
      PatternExperiment.Config(dataset, Defaults.sf(dataset)))
    println("\n=== " + s"Tables 9-11 block for $dataset" + " ===")
    println(report.render)
    assert(report.rows.nonEmpty)
    assert(report.mismatches === 0L, "GB and PB disagree on an uncapped pattern")
    // The paper's headline shape: PB beats GB where GB's enumeration is
    // superlinear. P6 (pairs of 3-hop cycles) is the largest blow-up on
    // every dataset; GB is capped there, so compare its extrapolated
    // full-run time, as the paper did for Bitcoin P5 ("15 days (est.)" vs
    // 179.74 s). At our scaled-down inputs the *relaxed* patterns invert
    // (Spark's fixed per-query overhead exceeds a tiny in-memory scan) —
    // documented in EXPERIMENTS.md.
    val p6 = report.rows.find(_.pattern == "P6").get
    assert(p6.pbMs <= p6.gbMs, s"PB (${p6.pbMs} ms) slower than GB (${p6.gbMs} ms) on P6")
  }
}

/** Table 9 — Bitcoin-like network. */
class Table9BitcoinPatternBench extends PatternBenchBase("bitcoin")

/** Table 10 — CTU-13-like network. */
class Table10CtuPatternBench extends PatternBenchBase("ctu13")

/** Table 11 — Prosper-like network (adds P1 and RP1 via the C2 table). */
class Table11ProsperPatternBench extends PatternBenchBase("prosper")
