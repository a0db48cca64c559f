package repro.harness

/** Scale factors and the subgraph interaction cap used when a run does not
  * set them: the values the EXPERIMENTS.md tables were produced with. Each
  * network is O(50–100K) interactions — big enough to exhibit the paper's
  * class skew and pattern-count blowups, small enough that the dense-simplex
  * LP baseline finishes in minutes.
  */
object Defaults {

  val sf: Map[String, Double] = Map("bitcoin" -> 0.002, "ctu13" -> 0.02, "prosper" -> 0.01)

  /** Subgraph interaction cap (paper: 10K; DESIGN.md §3 for why lower). */
  val maxInteractions: Int = 1500
}
