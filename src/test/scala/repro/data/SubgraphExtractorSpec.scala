package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{FlowPipeline, Interaction}

/** Tests for the seed-cycle subgraph extraction (Section 6.2 protocol),
  * with the cycle-arc join verified against DuckDB.
  */
class SubgraphExtractorSpec extends SparkSpec {

  /** Hand-built network: 1↔2 (2-cycle), 3→4→5→3 (3-cycle), 6→7 (no cycle). */
  private lazy val net = {
    val s = spark
    import s.implicits._
    Seq(
      Interaction(1, 2, 1L, 5.0),
      Interaction(2, 1, 2L, 3.0),
      Interaction(1, 2, 3L, 2.0),
      Interaction(3, 4, 4L, 7.0),
      Interaction(4, 5, 5L, 4.0),
      Interaction(5, 3, 6L, 2.0),
      Interaction(6, 7, 7L, 1.0),
    ).toDF()
  }

  /** Cap fixture, for a cap of 5: 1→2 (two interactions), 2→1, 2→3 and 3→1
    * give seeds 1 and 2 exactly 5 interactions (1→2 lies on both of seed 1's
    * cycles and on cycles of seeds 1, 2 and 3, and counts once per seed) and
    * seed 3 four; 4↔5 with three interactions each way gives seeds 4 and 5
    * six, one over the cap.
    */
  private lazy val capNet = {
    val s = spark
    import s.implicits._
    Seq(
      Interaction(1, 2, 1L, 5.0),
      Interaction(1, 2, 2L, 2.0),
      Interaction(2, 1, 3L, 3.0),
      Interaction(2, 3, 4L, 4.0),
      Interaction(3, 1, 5L, 1.5),
      Interaction(4, 5, 6L, 1.0),
      Interaction(5, 4, 7L, 2.0),
      Interaction(4, 5, 8L, 3.0),
      Interaction(5, 4, 9L, 4.0),
      Interaction(4, 5, 10L, 5.0),
      Interaction(5, 4, 11L, 6.0),
    ).toDF()
  }

  /** 1↔2 (2-cycle) with a self-loop 1→1 on it, and a lone self-loop 8→8. */
  private lazy val loopNet = {
    val s = spark
    import s.implicits._
    Seq(
      Interaction(1, 2, 1L, 5.0),
      Interaction(2, 1, 2L, 3.0),
      Interaction(1, 1, 3L, 4.0),
      Interaction(8, 8, 4L, 1.0),
    ).toDF()
  }

  test("cycleArcs finds 2-cycle seeds 1,2 and 3-cycle seeds 3,4,5 but not 6,7") {
    val seeds = SubgraphExtractor.cycleArcs(net).select("seed").distinct()
      .collect().map(_.getInt(0)).toSet
    assert(seeds === Set(1, 2, 3, 4, 5))
  }

  test("a self-loop creates no seed and no arc") {
    val arcs = SubgraphExtractor.cycleArcs(loopNet).collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getInt(2))).toSet
    assert(arcs === Set((1, 1, 2), (1, 2, 1), (2, 1, 2), (2, 2, 1)))
  }

  test("cycleArcs matches the equivalent DuckDB join (oracle)") {
    for (n <- Seq(net, loopNet)) {
      val arcs = SubgraphExtractor.cycleArcs(n)
        .select(col("seed").cast("string") as "seed", col("src").cast("string") as "src",
          col("dst").cast("string") as "dst")
      Oracle.assertEquivalent(arcs,
        """
        WITH e AS (SELECT DISTINCT src, dst FROM net),
        c2 AS (SELECT e1.src AS seed, e1.src AS a, e1.dst AS b
               FROM e e1 JOIN e e2 ON e1.dst = e2.src AND e2.dst = e1.src
               WHERE e1.src <> e1.dst),
        c3 AS (SELECT e1.src AS seed, e1.src AS a, e1.dst AS b, e2.dst AS c
               FROM e e1
               JOIN e e2 ON e1.dst = e2.src AND e2.dst <> e1.src
               JOIN e e3 ON e2.dst = e3.src AND e3.dst = e1.src
               WHERE e1.src <> e1.dst AND e2.dst <> e1.dst)
        SELECT DISTINCT seed, src, dst FROM (
          SELECT seed, a AS src, b AS dst FROM c2
          UNION ALL SELECT seed, b, a FROM c2
          UNION ALL SELECT seed, a, b FROM c3
          UNION ALL SELECT seed, b, c FROM c3
          UNION ALL SELECT seed, c, a FROM c3
        )
        """,
        "net" -> n)
    }
  }

  test("extracted subgraph for seed 1 contains both directions of the 2-cycle") {
    val sg = SubgraphExtractor.extract(net, 1000).collect().find(_.seed == 1).get
    val pairs = sg.inters.map(i => (i.src, i.dst)).toSet
    assert(pairs === Set((SubgraphExtractor.SourceId, 2), (2, SubgraphExtractor.SinkId)))
    assert(sg.inters.size === 3)
  }

  test("flow of the seed-1 subgraph: out 5+2 via (1,2), back min at (2,1)") {
    val sg = SubgraphExtractor.extract(net, 1000).collect().find(_.seed == 1).get
    val o  = FlowPipeline.preSim(sg.toFlowGraph)
    // (1,5) out, (2,3) back transfers 3, (3,2) out again (too late to matter).
    assert(math.abs(o.flow - 3.0) < 1e-9)
  }

  test("3-cycle subgraph carries all three edges") {
    val sg = SubgraphExtractor.extract(net, 1000).collect().find(_.seed == 3).get
    val pairs = sg.inters.map(i => (i.src, i.dst)).toSet
    assert(pairs === Set((SubgraphExtractor.SourceId, 4), (4, 5), (5, SubgraphExtractor.SinkId)))
  }

  test("interaction cap discards oversized subgraphs") {
    def kept(cap: Int) = SubgraphExtractor.extract(capNet, cap).collect().map(_.seed).toSet
    assert(kept(5) === Set(1, 2, 3))
    assert(kept(4) === Set(3))
    assert(SubgraphExtractor.extract(net, 2).collect().isEmpty)
  }

  test("extracted interactions match the equivalent DuckDB join, seed split and cap (oracle)") {
    val gen = NetworkGen.generate(spark, NetworkGen.ctuLike, 0.001)
    for ((n, cap) <- Seq(capNet -> 5, gen -> 20)) {
      val rows = SubgraphExtractor.taggedInteractions(n, cap)
        .select(col("seed").cast("string") as "seed", col("src").cast("string") as "src",
          col("dst").cast("string") as "dst", col("ts").cast("string") as "ts", col("qty"))
      Oracle.assertEquivalent(rows,
        s"""
        WITH e AS (SELECT DISTINCT src, dst FROM net),
        c2 AS (SELECT e1.src AS seed, e1.src AS a, e1.dst AS b
               FROM e e1 JOIN e e2 ON e1.dst = e2.src AND e2.dst = e1.src
               WHERE e1.src <> e1.dst),
        c3 AS (SELECT e1.src AS seed, e1.src AS a, e1.dst AS b, e2.dst AS c
               FROM e e1
               JOIN e e2 ON e1.dst = e2.src AND e2.dst <> e1.src
               JOIN e e3 ON e2.dst = e3.src AND e3.dst = e1.src
               WHERE e1.src <> e1.dst AND e2.dst <> e1.dst),
        arcs AS (SELECT DISTINCT seed, src, dst FROM (
          SELECT seed, a AS src, b AS dst FROM c2
          UNION ALL SELECT seed, b, a FROM c2
          UNION ALL SELECT seed, a, b FROM c3
          UNION ALL SELECT seed, b, c FROM c3
          UNION ALL SELECT seed, c, a FROM c3
        )),
        tagged AS (SELECT a.seed, n.src, n.dst, n.ts, n.qty
                   FROM arcs a JOIN net n ON a.src = n.src AND a.dst = n.dst),
        kept AS (SELECT seed FROM tagged GROUP BY seed HAVING count(*) <= $cap)
        SELECT t.seed,
               CASE WHEN t.src = t.seed THEN '${SubgraphExtractor.SourceId}' ELSE t.src END AS src,
               CASE WHEN t.dst = t.seed THEN '${SubgraphExtractor.SinkId}' ELSE t.dst END AS dst,
               t.ts, CAST(t.qty AS DOUBLE) AS qty
        FROM tagged t JOIN kept ON t.seed = kept.seed
        """,
        "net" -> n)
    }
  }

  test("stats count vertices/edges on the unsplit subgraph") {
    val ds = SubgraphExtractor.extract(net, 1000)
    val (n, avgV, avgE, avgI) = SubgraphExtractor.stats(ds)
    assert(n === 5)
    // seed 1/2 subgraphs: 2 vertices, 2 edges; seeds 3,4,5: 3 vertices, 3 edges.
    assert(math.abs(avgV - (2 + 2 + 3 + 3 + 3) / 5.0) < 1e-9)
    assert(math.abs(avgE - (2 + 2 + 3 + 3 + 3) / 5.0) < 1e-9)
    assert(avgI === 3.0)
  }

  test("subgraph classes on a generated network are consistent with pipeline flows") {
    val gen = NetworkGen.generate(spark, NetworkGen.ctuLike, 0.001)
    val subs = SubgraphExtractor.extract(gen, 500).collect()
    subs.take(50).foreach { sg =>
      val g = sg.toFlowGraph
      val pre = FlowPipeline.pre(g)
      val dinic = FlowPipeline.dinic(g)
      assert(math.abs(pre.flow - dinic) < 1e-4 * math.max(1.0, dinic),
        s"seed=${sg.seed}: pre=${pre.flow} dinic=$dinic")
    }
  }
}
