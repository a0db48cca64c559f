package repro.perfbench

import repro.data.NetworkGen

/** The benchmark's one workload table. Every value a run depends on is here
  * and is written into every result, so a result says which sf, cap and
  * sample it was measured with. The values are smaller than the bench
  * suites' (`BenchConfig`: bitcoin 0.002, ctu13 0.02, prosper 0.01, cap
  * 1500; `jobs/`: prosper 0.02, cap 2000) so that one pass of a workload
  * takes a few seconds and a run can repeat it and report medians.
  * `BENCHMARK.json` says why each workload is there; `flow-ctu13` is not
  * among them and is kept for manual runs and the self-test.
  */
object Workloads {

  final case class Workload(
      name: String,
      /** "flow" (extract + solve, Tables 5–8) or "pattern" (tables + PB + GB, Tables 9–11). */
      kind: String,
      dataset: String,
      sf: Double,
      /** Subgraph interaction cap of the extraction (flow). */
      maxInteractions: Int,
      /** Timed subgraphs per pass, a deterministic sample (flow). */
      sample: Int,
      /** GB instance cap per rigid pattern, and the P4 cap of both sides (pattern). */
      gbCap: Long,
      p4Cap: Long,
      gbSlices: Int,
  ) {
    def isFlow: Boolean = kind == "flow"

    /** The network spec with the run's seed applied. */
    def spec(seed: Long): NetworkGen.NetSpec = NetworkGen.byName(dataset).copy(seed = seed)

    /** Fields written into every result. */
    def describe: Seq[(String, Any)] = Seq(
      "name" -> name, "kind" -> kind, "dataset" -> dataset, "sf" -> sf,
      "max_interactions" -> maxInteractions, "sample" -> sample,
      "gb_cap" -> gbCap, "p4_cap" -> p4Cap, "gb_slices" -> gbSlices,
    )
  }

  val all: Seq[Workload] = Seq(
    Workload("flow-bitcoin", "flow", "bitcoin", sf = 0.0004, maxInteractions = 1000, sample = 2000,
      gbCap = 0, p4Cap = 0, gbSlices = 0),
    Workload("flow-ctu13", "flow", "ctu13", sf = 0.01, maxInteractions = 1000, sample = 500,
      gbCap = 0, p4Cap = 0, gbSlices = 0),
    Workload("pattern-prosper", "pattern", "prosper", sf = 0.001, maxInteractions = 0, sample = 0,
      gbCap = 100_000L, p4Cap = 500L, gbSlices = 16),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(s"unknown workload '$name'; know: ${all.map(_.name).mkString(", ")}"))

  /** The same workload at a scale that runs in a second, for the self-test. */
  def tiny(w: Workload): Workload = w.dataset match {
    case "bitcoin" => w.copy(sf = 0.0002, maxInteractions = 300, sample = 60)
    case "ctu13"   => w.copy(sf = 0.001, maxInteractions = 300, sample = 60)
    case _         => w.copy(sf = 0.0003, gbCap = 20_000L, p4Cap = 50L, gbSlices = 4)
  }
}
