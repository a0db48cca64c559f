package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.NetworkGen
import repro.patterns._

/** The pattern-search experiment of Section 6.3 (Tables 9, 10, 11): for each
  * pattern, enumerate the instances and compute each instance's maximum
  * flow, comparing
  *
  *  - '''GB''' — graph browsing (Section 5.1), parallelised across start
  *    vertices (each Spark task backtracks over a broadcast adjacency
  *    index), and
  *  - '''PB''' — the precomputation-based approach (Section 5.2): L2/L3
  *    cycle tables (and C2 chains for the Prosper-like network) browsed and
  *    materialised once, then each pattern answered by Catalyst
  *    joins/aggregations over the tables; only P4 needs per-instance LP
  *    flows, and it browses the network instead.
  *
  * Both run on the same local[*] session, so the GB-vs-PB comparison is
  * core-for-core fair. Patterns whose GB enumeration would be unbounded at
  * bench scale are capped like the paper's starred P4/P6 rows and marked
  * with `*`.
  */
object PatternExperiment {

  final case class Config(
      dataset: String,
      sf: Double,
      /** Total GB instance cap per pattern (paper capped Bitcoin P4/P6 at
        * 3000; our cap keeps all GB rows bounded at bench scale). */
      gbCap: Long = 500_000L,
      /** Instance cap for P4's per-instance LP flows (both GB and PB),
        * mirroring the paper's P4* protocol. */
      p4Cap: Long = 3000L,
  )

  final case class PatternRow(
      pattern: String,
      instances: Long,
      avgFlow: Double,
      /** Estimated full GB time when `gbEstimated` (extrapolated from the
        * capped run, like the paper's "15 days (est.)" entry); measured
        * otherwise. */
      gbMs: Double,
      pbMs: Double,
      gbCapped: Boolean,
      gbEstimated: Boolean,
  )

  final case class Report(
      dataset: String,
      sf: Double,
      precomputeMs: Double,
      tableSizes: Map[String, Long],
      rows: Seq[PatternRow],
      /** Rows where GB ran uncapped and its instance count or average flow
        * differs from PB's (relative 1e-6): must be 0. */
      mismatches: Long,
  ) {
    def render: String = {
      val header = Seq("Pattern", "Instances", "Avg flow", "GB (ms)", "PB (ms)")
      val body = rows.map { r =>
        Seq(
          r.pattern + (if (r.gbCapped) "*" else ""),
          Timing.fmtCount(r.instances),
          f"${r.avgFlow}%.2f",
          Timing.fmtMs(r.gbMs) + (if (r.gbEstimated) " (est.)" else ""),
          Timing.fmtMs(r.pbMs),
        )
      }
      s"""== Pattern search on $dataset (sf=$sf) ==
         |precompute: ${Timing.fmtMs(precomputeMs)} ms, tables: ${tableSizes.map { case (k, v) => s"$k=$v" }.mkString(", ")}
         |${Timing.table(header, body)}
         |(* = GB enumeration capped; "est." = full GB time extrapolated from
         |the capped run, the paper's "15 days (est.)" protocol)
         |GB vs PB mismatches: $mismatches
         |""".stripMargin
    }
  }

  def run(spark: SparkSession, cfg: Config): Report = {
    val spec = NetworkGen.byName(cfg.dataset)
    val net  = NetworkGen.generate(spark, spec, cfg.sf).cache()
    net.count()

    // ---- GB side: broadcast adjacency ----
    val adj     = AdjacencyIndex.fromNetwork(net)
    val adjB    = spark.sparkContext.broadcast(adj)
    val vSlices = adj.slices(64)

    /** GB over all slices, one task each: (instances, flow sum, capped) and its time in ms. */
    def gb(perSlice: Array[Int] => (Long, Double, Boolean)): ((Long, Double, Boolean), Double) = {
      val (res, ns) = Timing.timeNs {
        spark.sparkContext.parallelize(vSlices, vSlices.size).map(perSlice).collect()
          .foldLeft((0L, 0.0, false)) { case ((a, b, c), (x, y, z)) => (a + x, b + y, c || z) }
      }
      (res, Timing.nsToMs(ns))
    }

    def rigid(p: Pattern, cap: Long): Array[Int] => (Long, Double, Boolean) = {
      val capPerTask = math.max(1L, cap / vSlices.size)
      sl => {
        val (n, f) = GraphBrowsing.enumerateWithFlow(adjB.value, p, capPerTask, Some(sl))
        (n, f, n >= capPerTask)
      }
    }

    def relaxed(rows: (AdjacencyIndex, Option[Array[Int]]) => Seq[(Any, Int, Double)]): Array[Int] => (Long, Double, Boolean) =
      sl => {
        val rs = rows(adjB.value, Some(sl))
        (rs.size.toLong, rs.map(_._3).sum, false)
      }

    // ---- PB side: precompute tables ----
    val withChains = cfg.dataset == "prosper"
    def materialise(t: DataFrame): (DataFrame, Long) = { val c = t.cache(); (c, c.count()) }
    val (tables, preNs) = Timing.timeNs {
      (materialise(PathTables.l2(net)), materialise(PathTables.l3(net)),
       Option.when(withChains)(materialise(PathTables.c2(net))))
    }
    val ((l2, l2Rows), (l3, l3Rows), c2Sized) = tables
    val c2         = c2Sized.map(_._1)
    val tableSizes = Map("L2" -> l2Rows, "L3" -> l3Rows) ++ c2Sized.map("C2" -> _._2)

    var mismatches = 0L

    /** One table row. Instances and average flow come from PB, which is
      * exact except where `pbCapped` (P4: both sides stop at `p4Cap`). GB
      * supplies its time, extrapolated by rate to PB's count when GB alone
      * was capped (the paper's "15 days (est.)"); uncapped, GB must agree
      * with PB.
      */
    def row(name: String, perSlice: Array[Int] => (Long, Double, Boolean), pbQ: => (Long, Double),
            pbCapped: Boolean = false): PatternRow = {
      val ((gn, gsum, gcap), gms) = gb(perSlice)
      val ((pn, pavg), pns)       = Timing.timeNs(pbQ)
      val gavg = if (gn == 0) 0.0 else gsum / gn
      if (!gcap && (gn != pn || math.abs(gavg - pavg) > 1e-6 * math.max(1.0, math.abs(pavg)))) mismatches += 1
      val estimated = gcap && !pbCapped
      PatternRow(name, pn, pavg, if (estimated && gn > 0) gms * (pn.toDouble / gn) else gms,
        Timing.nsToMs(pns), gbCapped = gcap || pbCapped, gbEstimated = estimated)
    }

    val rows = Seq(
      Option.when(withChains)(row("P1", rigid(Patterns.P1, cfg.gbCap), PatternEnum.p1(c2.get))),
      Some(row("P2", rigid(Patterns.P2, cfg.gbCap), PatternEnum.p2(l2))),
      Some(row("P3", rigid(Patterns.P3, cfg.gbCap), PatternEnum.p3(l3))),
      Some(row("P4", rigid(Patterns.P4, cfg.p4Cap), PatternEnum.p4Limited(net, cfg.p4Cap), pbCapped = true)),
      Some(row("P5", rigid(Patterns.P5, cfg.gbCap), PatternEnum.p5(l2, l3))),
      Some(row("P6", rigid(Patterns.P6, cfg.gbCap), PatternEnum.p6(l3))),
      Option.when(withChains)(row("RP1", relaxed(GraphBrowsing.relaxedChains2), PatternEnum.rp1(c2.get))),
      Some(row("RP2", relaxed(GraphBrowsing.relaxedCycles(_, 2, _)), PatternEnum.rp2(l2))),
      Some(row("RP3", relaxed(GraphBrowsing.relaxedCycles(_, 3, _)), PatternEnum.rp3(l3))),
    ).flatten

    val report = Report(cfg.dataset, cfg.sf, Timing.nsToMs(preNs), tableSizes, rows, mismatches)
    l2.unpersist(); l3.unpersist(); c2.foreach(_.unpersist()); net.unpersist(); adjB.destroy()
    report
  }
}
