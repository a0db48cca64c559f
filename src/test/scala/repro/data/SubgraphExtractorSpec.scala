package repro.data

import org.apache.spark.serializer.JavaSerializer
import org.apache.spark.sql.Encoders
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, DoubleType, IntegerType, LongType}
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec}
import repro.core.{FlowGraph, FlowPipeline, Interaction}
import repro.data.SubgraphExtractor.Subgraph

/** Tests for the seed-cycle subgraph extraction (Section 6.2 protocol),
  * with the cycle arcs and the extracted interactions verified against
  * DuckDB and against a brute-force reference on random networks.
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
    assert(sg.edges === Map(
      (SubgraphExtractor.SourceId, 2) -> Vector((1L, 5.0), (3L, 2.0)),
      (2, SubgraphExtractor.SinkId)   -> Vector((2L, 3.0))))
  }

  test("flow of the seed-1 subgraph: out 5+2 via (1,2), back min at (2,1)") {
    val sg = SubgraphExtractor.extract(net, 1000).collect().find(_.seed == 1).get
    val o  = FlowPipeline.preSim(sg.toFlowGraph)
    // (1,5) out, (2,3) back transfers 3, (3,2) out again (too late to matter).
    assert(math.abs(o.flow - 3.0) < 1e-9)
  }

  test("3-cycle subgraph carries all three edges") {
    val sg = SubgraphExtractor.extract(net, 1000).collect().find(_.seed == 3).get
    assert(sg.edges.keySet === Set((SubgraphExtractor.SourceId, 4), (4, 5), (5, SubgraphExtractor.SinkId)))
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

  test("a subgraph encodes as int columns and arrays of int, long and double: no map, no struct") {
    val schema = Encoders.product[Subgraph].schema
    assert(schema.fields.forall(_.dataType match {
      case IntegerType                                            => true
      case ArrayType(IntegerType | LongType | DoubleType, false) => true
      case _                                                      => false
    }), schema.treeString)
  }

  test("extracted subgraphs round-trip through Spark's JavaSerializer") {
    val ser  = new JavaSerializer(spark.sparkContext.getConf).newInstance()
    val subs = Seq(net, NetworkGen.generate(spark, NetworkGen.bitcoinLike, 0.0002))
      .flatMap(SubgraphExtractor.extract(_, 1000).collect())
    assert(subs.size > 5)
    subs.foreach { sg =>
      val back = ser.deserialize[Subgraph](ser.serialize(sg))
      assert(back.seed === sg.seed && back.toFlowGraph == sg.toFlowGraph, s"seed ${sg.seed}")
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

  /** A random network of 1–8 vertices: self-loops and 2-cycles arise from
    * uniform pairs, repeated pairs and 1–3 interactions per draw give
    * parallel interactions, and timestamps in 1..5 tie often.
    */
  private val genNetwork: Gen[Seq[Interaction]] = for {
    n     <- Gen.choose(1, 8)
    m     <- Gen.choose(0, 2 * n)
    pairs <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    draws <- Gen.sequence[List[List[Interaction]], List[Interaction]](pairs.map { case (a, b) =>
      Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(1L, 5L), Gen.choose(1, 9))
        .map { case (t, q) => Interaction(a, b, t, q.toDouble) }))
    })
  } yield draws.flatten

  /** Brute force over all vertex pairs and triples: each seed's distinct
    * arcs of its 2-cycles `a→b→a` and 3-cycles `a→b→c→a` (pairwise-distinct
    * vertices).
    */
  private def referenceArcs(inters: Seq[Interaction]): Map[Int, Set[(Int, Int)]] = {
    val e  = inters.map(i => (i.src, i.dst)).toSet
    val vs = inters.flatMap(i => Seq(i.src, i.dst)).distinct
    val cycles =
      (for (a <- vs; b <- vs if a != b && e((a, b)) && e((b, a))) yield a -> Set((a, b), (b, a))) ++
      (for (a <- vs; b <- vs; c <- vs if a != b && b != c && c != a && e((a, b)) && e((b, c)) && e((c, a)))
        yield a -> Set((a, b), (b, c), (c, a)))
    cycles.groupMapReduce(_._1)(_._2)(_ ++ _)
  }

  test("property: extract and cycleArcs equal a brute-force reference on random networks") {
    val s = spark
    import s.implicits._
    // Disjoint copies (vertex ids offset by 10 per sample) share one Spark
    // network; no cycle crosses two samples.
    var rng = Seed(0x5EEDL)
    val samples = (0 until 150).map { k =>
      val net = genNetwork(Gen.Parameters.default, rng).get
      rng = rng.next
      net.map(i => i.copy(src = i.src + 10 * k, dst = i.dst + 10 * k))
    }
    val all = samples.flatten
    assert(all.exists(i => i.src == i.dst), "the samples must contain self-loops")
    assert(all.groupBy(i => (i.src, i.dst)).values.exists(is => is.map(_.ts).distinct.size < is.size),
      "the samples must contain parallel interactions with tied timestamps")
    val arcs = referenceArcs(all)
    assert(arcs.values.exists(_.size == 2) && arcs.values.exists(_.size == 3), "the samples must contain 2- and 3-cycles")
    val net = all.toDF()

    val gotArcs = SubgraphExtractor.cycleArcs(net).as[(Int, Int, Int)].collect().toSeq
    val wantArcs = arcs.toSeq.flatMap { case (a, as) => as.map { case (u, w) => (a, u, w) } }
    assert(gotArcs.sorted === wantArcs.sorted)

    /** The seed's subgraph: every interaction on its arcs, the seed split. */
    def subgraph(seed: Int): Seq[Interaction] = all.collect {
      case i if arcs(seed)((i.src, i.dst)) =>
        i.copy(src = if (i.src == seed) SubgraphExtractor.SourceId else i.src,
               dst = if (i.dst == seed) SubgraphExtractor.SinkId else i.dst)
    }
    val want = arcs.keys.map(a => a -> subgraph(a)).toMap
    // Each seed's size and one less: every seed is once at its cap exactly.
    val caps = want.values.map(_.size).toSeq.flatMap(n => Seq(n - 1, n)).distinct.sorted
    for (cap <- caps) {
      val ds   = SubgraphExtractor.extract(net, cap).cache()
      val got  = ds.collect()
      val kept = want.collect { case (a, is) if is.size <= cap => a }.toSeq.sorted
      assert(got.map(_.seed).toSeq.sorted === kept, s"cap $cap: kept seeds")
      got.foreach { sg =>
        assert(sg.toFlowGraph == FlowGraph(SubgraphExtractor.SourceId, SubgraphExtractor.SinkId, want(sg.seed)),
          s"cap $cap seed ${sg.seed}")
      }
      if (kept.nonEmpty) {
        // Table 5 counts on the unsplit subgraph: its arcs and their ends.
        def avg(f: Int => Int) = kept.map(f).sum.toDouble / kept.size
        val (n, avgV, avgE, avgI) = SubgraphExtractor.stats(ds)
        assert(n === kept.size, s"cap $cap: stats count")
        assert(math.abs(avgV - avg(a => arcs(a).flatMap { case (u, w) => Seq(u, w) }.size)) < 1e-9, s"cap $cap: avg vertices")
        assert(math.abs(avgE - avg(arcs(_).size)) < 1e-9, s"cap $cap: avg edges")
        assert(math.abs(avgI - avg(want(_).size)) < 1e-9, s"cap $cap: avg interactions")
      }
      ds.unpersist()
    }
  }
}
