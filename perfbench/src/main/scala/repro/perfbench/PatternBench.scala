package repro.perfbench

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Interaction
import repro.patterns._

/** One pass of the pattern workload: the steps of `PatternExperiment.run`
  * after the network exists — L2/L3/C2 materialisation, the adjacency index
  * GB browses, then every pattern's PB query and GB enumeration — each timed
  * on its own. GB runs across Spark tasks over round-robin vertex slices,
  * like `PatternExperiment`.
  *
  * Gate: where GB was not capped, its instance count and average flow must
  * equal PB's. P4 is capped on both sides, so it is not compared.
  */
object PatternBench {

  /** Per-pattern outcome of one pass. */
  final case class Row(pattern: String, pbInstances: Long, pbAvg: Double, pbNs: Long,
                       gbInstances: Long, gbAvg: Double, gbNs: Long, gbCapped: Boolean)

  final case class Pass(
      precomputeNs: Long,
      adjacencyNs: Long,
      totalNs: Long,
      tableRows: Map[String, Long],
      tableNs: Map[String, Long],
      rows: Seq[Row],
      attempted: Long,
      failures: Seq[String],
  ) {
    def pbNs: Long = rows.map(_.pbNs).sum
    def gbNs: Long = rows.map(_.gbNs).sum
  }

  private def slices(vertices: Array[Int], n: Int): Seq[Array[Int]] =
    (0 until n).map(i => vertices.indices.collect { case j if j % n == i => vertices(j) }.toArray)

  def pass(spark: SparkSession, net: DataFrame, w: Workloads.Workload, tr: Tracer): Pass = {
    import spark.implicits._
    val sc         = spark.sparkContext
    val withChains = w.dataset == "prosper"
    val t0         = System.nanoTime()

    // PB precompute: each table materialised and counted on its own.
    val tableNs   = collection.mutable.LinkedHashMap.empty[String, Long]
    val tableRows = collection.mutable.LinkedHashMap.empty[String, Long]
    def table(name: String)(mk: => DataFrame): DataFrame = {
      val (t, ns) = Stats.timeNs(tr.span(s"pathtables.$name") { val t = mk.cache(); tableRows(name) = t.count(); t })
      tableNs(name) = ns
      t
    }
    val (l2, l3, c2) = SparkStages.inStage(sc, "tables") {
      (table("l2")(PathTables.l2(net)), table("l3")(PathTables.l3(net)),
       if (withChains) Some(table("c2")(PathTables.c2(net))) else None)
    }
    val t1 = System.nanoTime()

    // GB's in-memory adjacency, broadcast to the tasks.
    val adjB: Broadcast[AdjacencyIndex] = SparkStages.inStage(sc, "gb") {
      tr.span("graphbrowsing.adjacency") {
        val inters = net.select($"src", $"dst", $"ts", $"qty").as[Interaction].collect()
        sc.broadcast(AdjacencyIndex.fromInteractions(inters.toSeq))
      }
    }
    val t2      = System.nanoTime()
    val vSlices = slices(adjB.value.vertices, w.gbSlices)

    def pb(name: String)(q: => (Long, Double)): ((Long, Double), Long) =
      SparkStages.inStage(sc, "pb") { tr.req = name; Stats.timeNs(tr.span(s"patternenum.$name")(q)) }

    /** GB over all slices: (instances, flow sum, capped), timed. */
    def gb(name: String)(perSlice: Array[Int] => (Long, Double, Boolean)): ((Long, Double, Boolean), Long) =
      SparkStages.inStage(sc, "gb") {
        tr.req = name
        Stats.timeNs(tr.span(s"graphbrowsing.$name") {
          sc.parallelize(vSlices, vSlices.size).map(perSlice).collect()
            .foldLeft((0L, 0.0, false)) { case ((a, b, c), (x, y, z)) => (a + x, b + y, c || z) }
        })
      }

    def rigid(p: Pattern, cap: Long): Array[Int] => (Long, Double, Boolean) = {
      val capPerTask = math.max(1L, cap / w.gbSlices)
      sl => {
        val (n, f) = GraphBrowsing.enumerateWithFlow(adjB.value, p, capPerTask, Some(sl))
        (n, f, n >= capPerTask)
      }
    }
    def relaxedCycles(hops: Int): Array[Int] => (Long, Double, Boolean) = sl => {
      val rs = GraphBrowsing.relaxedCycles(adjB.value, hops, Some(sl))
      (rs.size.toLong, rs.map(_._3).sum, false)
    }
    val relaxedChains: Array[Int] => (Long, Double, Boolean) = sl => {
      val rs = GraphBrowsing.relaxedChains2(adjB.value, Some(sl))
      (rs.size.toLong, rs.map(_._3).sum, false)
    }

    val rows = collection.mutable.ArrayBuffer.empty[Row]
    def add(name: String, pbQ: => (Long, Double), gbQ: Array[Int] => (Long, Double, Boolean)): Unit = {
      val ((pn, pavg), pns)    = pb(name)(pbQ)
      val ((gn, gsum, gc), gns) = gb(name)(gbQ)
      rows += Row(name, pn, pavg, pns, gn, if (gn == 0) 0.0 else gsum / gn, gns, gc)
    }

    if (withChains) add("P1", PatternEnum.p1(c2.get), rigid(Patterns.P1, w.gbCap))
    add("P2", PatternEnum.p2(l2), rigid(Patterns.P2, w.gbCap))
    add("P3", PatternEnum.p3(l3), rigid(Patterns.P3, w.gbCap))
    add("P4", PatternEnum.p4Limited(net, w.p4Cap), rigid(Patterns.P4, w.p4Cap))
    add("P5", PatternEnum.p5(l2, l3), rigid(Patterns.P5, w.gbCap))
    add("P6", PatternEnum.p6(l3), rigid(Patterns.P6, w.gbCap))
    if (withChains) add("RP1", PatternEnum.rp1(c2.get), relaxedChains)
    add("RP2", PatternEnum.rp2(l2), relaxedCycles(2))
    add("RP3", PatternEnum.rp3(l3), relaxedCycles(3))
    tr.req = ""
    val t3 = System.nanoTime()

    l2.unpersist(); l3.unpersist(); c2.foreach(_.unpersist()); adjB.destroy()

    val failures = rows.toSeq.flatMap { r =>
      if (r.pattern == "P4" || r.gbCapped) Nil
      else if (r.gbInstances != r.pbInstances)
        Seq(s"pattern ${r.pattern}: GB instances ${r.gbInstances} != PB ${r.pbInstances}")
      else if (math.abs(r.gbAvg - r.pbAvg) > 1e-6 * math.max(1.0, math.abs(r.pbAvg)))
        Seq(s"pattern ${r.pattern}: GB avg flow ${r.gbAvg} != PB ${r.pbAvg}")
      else Nil
    }
    Pass(t1 - t0, t2 - t1, t3 - t0, tableRows.toMap, tableNs.toMap, rows.toSeq,
      rows.count(r => r.pattern != "P4" && !r.gbCapped).toLong, failures)
  }
}
