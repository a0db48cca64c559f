package repro.harness

import repro.SparkSpec
import repro.core.{FlowPipeline, TestGraphs}

/** Smoke tests for the experiment harnesses at tiny scale (the real runs
  * live in the `bench` project), plus units for the timing helpers.
  */
class HarnessSmokeSpec extends SparkSpec {

  test("timeNs measures and returns the value") {
    val (v, ns) = Timing.timeNs { Thread.sleep(1); 42 }
    assert(v === 42)
    assert(ns > 0)
  }

  test("table renders aligned columns") {
    val t = Timing.table(Seq("a", "bb"), Seq(Seq("ccc", "d")))
    val lines = t.split("\n")
    assert(lines.length === 2)
    assert(lines(0).startsWith("a  "))
  }

  test("fmtCount scales units") {
    assert(Timing.fmtCount(999) === "999")
    assert(Timing.fmtCount(22_300_000_000L) === "22.30G")
    assert(Timing.fmtCount(2_800_000L) === "2.80M")
    assert(Timing.fmtCount(48_700L) === "48.7K")
  }

  test("measure cross-checks methods against the Dinic oracle") {
    val (row, mismatches) = FlowExperiment.measure(1, TestGraphs.fig3)
    assert(mismatches === 0)
    assert(row.cls === "C")
    assert(math.abs(row.maxFlow - 5.0) < 1e-6)
    assert(math.abs(row.greedyFlow - 1.0) < 1e-6)
  }

  test("FlowExperiment end-to-end on a tiny ctu network") {
    val report = FlowExperiment.run(spark, FlowExperiment.Config("ctu13", 0.001, 500))
    assert(report.mismatches === 0L)
    assert(report.render.contains("Table 5 row"))
    // Every measured subgraph agrees with the classifier's partition.
    val classes = report.rows.map(_.cls).toSet
    assert(classes.subsetOf(Set("A", "B", "C")))
  }

  test("FlowExperiment releases every cache it creates") {
    spark.catalog.clearCache()
    FlowExperiment.run(spark, FlowExperiment.Config("ctu13", 0.001, 500))
    assert(spark.sharedState.cacheManager.isEmpty)
  }

  test("PatternExperiment releases every cache it creates") {
    spark.catalog.clearCache()
    PatternExperiment.run(spark,
      PatternExperiment.Config("prosper", 0.0003, gbCap = 100_000L, p4Cap = 50L))
    assert(spark.sharedState.cacheManager.isEmpty)
  }

  test("PatternExperiment end-to-end on a tiny prosper network") {
    val report = PatternExperiment.run(spark,
      PatternExperiment.Config("prosper", 0.0003, gbCap = 100_000L, p4Cap = 50L))
    val names = report.rows.map(_.pattern)
    assert(names.contains("P1") && names.contains("RP1"), "prosper run must include chain patterns")
    assert(names.contains("P3") && names.contains("RP3"))
    assert(report.mismatches === 0L, "GB and PB disagree on an uncapped pattern")
    assert(report.render.contains("GB vs PB mismatches: 0"))
  }
}
