package repro.bench

import repro.SparkSpec
import repro.harness.{Defaults, Timing}
import repro.jobs.DatasetStats

/** Table 4 — characteristics of the (synthetic stand-in) datasets.
  *
  * Paper (real data):   Bitcoin 12M/27.7M/45.5M/34.4B,
  *                      CTU-13 607K/697K/2.8M/19.2KB,
  *                      Prosper 88K/3M/3.04M/$76.
  * Ours are the same generators the flow/pattern benches run on, at the
  * bench scale factors — recorded side by side in EXPERIMENTS.md.
  */
class Table4DatasetStatsBench extends SparkSpec {

  test("Table 4: dataset characteristics") {
    val rows = DatasetStats.rows(spark, Defaults.sf)
    println("\n=== Table 4: Characteristics of datasets (synthetic stand-ins) ===")
    println(Timing.table(DatasetStats.header, rows))
    assert(rows.size === 3)
  }
}
