package repro.patterns

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{FlowPipeline, Interaction}
import repro.data.NetworkGen

/** The PB join-based pattern enumeration must agree with the GB
  * backtracking baseline on instance counts and total flows — the central
  * consistency requirement of Section 5 — and its counts must match DuckDB
  * join queries (oracle).
  */
class PatternEnumSpec extends SparkSpec {

  /** A small sparse network guaranteed to contain instances of every
    * pattern (explicit 2-cycles, 3-cycles, chords) plus random edges, small
    * enough for exhaustive GB enumeration.
    */
  private lazy val net: DataFrame = {
    val s = spark
    import s.implicits._
    val rnd   = new scala.util.Random(7)
    val edges = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    // 2-cycles at vertices 1 and 4.
    edges ++= Seq((1, 2), (2, 1), (1, 3), (3, 1), (4, 5), (5, 4))
    // 3-cycles at 1 (two, disjoint intermediates -> P6) and at 2.
    edges ++= Seq((1, 6), (6, 7), (7, 1), (1, 10), (10, 11), (11, 1), (2, 8), (8, 9), (9, 2))
    // chords closing 1->6->7->1 into a P4 instance.
    edges ++= Seq((1, 7), (6, 1))
    // random filler edges over 30 vertices.
    while (edges.size < 90) {
      val a = rnd.nextInt(30) + 1
      val b = rnd.nextInt(30) + 1
      if (a != b) edges += ((a, b))
    }
    // 1-2 interactions per edge; timestamps are a random permutation so the
    // time order is independent of construction order.
    val raw = edges.toVector.flatMap { case (a, b) =>
      (0 until rnd.nextInt(2) + 1).map(_ => (a, b, rnd.nextInt(90) + 1))
    }
    val perm = rnd.shuffle(raw.indices.toVector)
    val inters = raw.zip(perm).map { case ((a, b, q), ts) => Interaction(a, b, ts.toLong, q.toDouble) }
    val df = inters.toDF().cache()
    df.count()
    df
  }

  private lazy val adj: AdjacencyIndex = {
    val s = spark
    import s.implicits._
    AdjacencyIndex.fromInteractions(net.as[Interaction].collect().toSeq)
  }

  private lazy val l2 = PathTables.l2(net).cache()
  private lazy val l3 = PathTables.l3(net).cache()
  private lazy val c2 = PathTables.c2(net).cache()

  private def gbCountFlow(p: Pattern): (Long, Double) =
    GraphBrowsing.enumerateWithFlow(adj, p)

  private def assertAgree(name: String, gb: (Long, Double), pb: (Long, Double)): Unit = {
    assert(gb._1 === pb._1, s"$name instance counts differ: GB=${gb._1} PB=${pb._1}")
    val gbAvg = if (gb._1 == 0) 0.0 else gb._2 / gb._1
    assert(math.abs(gbAvg - pb._2) < 1e-6 * math.max(1.0, math.abs(pb._2)),
      s"$name avg flows differ: GB=$gbAvg PB=${pb._2}")
  }

  test("network contains instances to make the comparison meaningful") {
    assert(l2.count() > 0, "no 2-hop cycles in the test network — enlarge sf")
    assert(l3.count() > 0, "no 3-hop cycles in the test network — enlarge sf")
  }

  test("P1: GB == PB") { assertAgree("P1", gbCountFlow(Patterns.P1), PatternEnum.p1(c2)) }

  test("P2: GB == PB") { assertAgree("P2", gbCountFlow(Patterns.P2), PatternEnum.p2(l2)) }

  test("P3: GB == PB") { assertAgree("P3", gbCountFlow(Patterns.P3), PatternEnum.p3(l3)) }

  test("P4: GB == PB (per-instance LP flows)") {
    assertAgree("P4", gbCountFlow(Patterns.P4), PatternEnum.p4(net))
  }

  test("P5: GB == PB") { assertAgree("P5", gbCountFlow(Patterns.P5), PatternEnum.p5(l2, l3)) }

  test("P6: GB == PB") { assertAgree("P6", gbCountFlow(Patterns.P6), PatternEnum.p6(l3)) }

  test("RP1: GB == PB") {
    val rs = GraphBrowsing.relaxedChains2(adj)
    val (pn, pavg) = PatternEnum.rp1(c2)
    assert(rs.size.toLong === pn)
    val gbAvg = if (rs.isEmpty) 0.0 else rs.map(_._3).sum / rs.size
    assert(math.abs(gbAvg - pavg) < 1e-6 * math.max(1.0, pavg))
  }

  test("RP2: GB == PB") {
    val rs = GraphBrowsing.relaxedCycles(adj, 2)
    val (pn, pavg) = PatternEnum.rp2(l2)
    assert(rs.size.toLong === pn)
    val gbAvg = if (rs.isEmpty) 0.0 else rs.map(_._3).sum / rs.size
    assert(math.abs(gbAvg - pavg) < 1e-6 * math.max(1.0, pavg))
  }

  test("RP3: GB == PB") {
    val rs = GraphBrowsing.relaxedCycles(adj, 3)
    val (pn, pavg) = PatternEnum.rp3(l3)
    assert(rs.size.toLong === pn)
    val gbAvg = if (rs.isEmpty) 0.0 else rs.map(_._3).sum / rs.size
    assert(math.abs(gbAvg - pavg) < 1e-6 * math.max(1.0, pavg))
  }

  test("P2 count matches DuckDB (oracle)") {
    val s = spark
    import s.implicits._
    val cnt = Seq(PatternEnum.p2(l2)._1).toDF("n")
    Oracle.assertEquivalent(cnt,
      """
      WITH e AS (SELECT DISTINCT src, dst FROM net),
      l2 AS (SELECT e1.src AS a, e1.dst AS b FROM e e1
             JOIN e e2 ON e1.dst = e2.src AND e2.dst = e1.src WHERE e1.src <> e1.dst)
      SELECT COUNT(*) AS n FROM l2 x JOIN l2 y
        ON x.a = y.a AND CAST(x.b AS BIGINT) < CAST(y.b AS BIGINT)
      """,
      "net" -> net)
  }

  test("P6 count matches DuckDB (oracle)") {
    val s = spark
    import s.implicits._
    val cnt = Seq(PatternEnum.p6(l3)._1).toDF("n")
    Oracle.assertEquivalent(cnt,
      """
      WITH e AS (SELECT DISTINCT src, dst FROM net),
      l3 AS (SELECT e1.src AS a, e1.dst AS b, e2.dst AS c FROM e e1
             JOIN e e2 ON e1.dst = e2.src AND e2.dst <> e1.src
             JOIN e e3 ON e2.dst = e3.src AND e3.dst = e1.src
             WHERE e1.src <> e1.dst AND e2.dst <> e1.dst)
      SELECT COUNT(*) AS n FROM l3 x JOIN l3 y
        ON x.a = y.a AND CAST(x.b AS BIGINT) < CAST(y.b AS BIGINT)
           AND x.c <> y.b AND x.c <> y.c AND y.c <> x.b
      """,
      "net" -> net)
  }

  test("RP2 instance count matches DuckDB (oracle)") {
    val s = spark
    import s.implicits._
    val cnt = Seq(PatternEnum.rp2(l2)._1).toDF("n")
    Oracle.assertEquivalent(cnt,
      """
      WITH e AS (SELECT DISTINCT src, dst FROM net),
      l2 AS (SELECT e1.src AS a FROM e e1
             JOIN e e2 ON e1.dst = e2.src AND e2.dst = e1.src WHERE e1.src <> e1.dst)
      SELECT COUNT(DISTINCT a) AS n FROM l2
      """,
      "net" -> net)
  }

  test("p4Limited keeps the k smallest-(a, b, c) instances of GB's uncapped P4") {
    val s = spark
    import s.implicits._
    /** Checks `p4Limited` at each `k` on the complete digraph over `1 to v`,
      * whose `v(v-1)(v-2)` ordered triples are all P4 instances; random
      * quantities and times give them differing flows.
      */
    def check(v: Int, seed: Int, ks: Int => Seq[Int]): Unit = {
      val rnd    = new scala.util.Random(seed)
      val pairs  = for (a <- 1 to v; b <- 1 to v if a != b; _ <- 0 to rnd.nextInt(2)) yield (a, b)
      val times  = rnd.shuffle(pairs.indices.toVector)
      val inters = pairs.zip(times).map { case ((a, b), t) => Interaction(a, b, t.toLong, (1 + rnd.nextInt(9)).toDouble) }
      val kv     = AdjacencyIndex.fromInteractions(inters)
      val flows  = scala.collection.mutable.ArrayBuffer.empty[(Seq[Int], Double)]
      GraphBrowsing.enumerate(kv, Patterns.P4) { mu =>
        flows += ((mu.take(3).toSeq, FlowPipeline.preSim(GraphBrowsing.instanceGraph(kv, Patterns.P4, mu)).flow))
      }
      assert(flows.size === v * (v - 1) * (v - 2))
      val sorted = flows.sortBy(_._1)(Ordering.Implicits.seqOrdering[Seq, Int])
      for (k <- ks(flows.size)) {
        val kept     = sorted.take(k).map(_._2)
        val (n, avg) = PatternEnum.p4Limited(inters.toDF(), k.toLong)
        assert(n === k.toLong)
        assert(math.abs(avg - kept.sum / k) <= 1e-9 * math.max(1.0, math.abs(avg)), s"v = $v, k = $k")
      }
    }
    check(4, 5, _ => Seq(1, 6, 23, 24))
    // Twice as many vertices as slices (two per core), plus one, so every
    // slice holds several roots of (v-1)(v-2) instances each. The k below cut
    // inside the first slice's first root, the fourth root and the second
    // slice's second root.
    val slices  = 2 * spark.sparkContext.defaultParallelism
    val v       = 2 * slices + 1
    val perRoot = (v - 1) * (v - 2)
    check(v, 9, total => Seq(perRoot / 2, 3 * perRoot + 7, (slices + 1) * perRoot + perRoot / 3, total - 1))
  }

  test("P4 count matches DuckDB (oracle)") {
    val s = spark
    import s.implicits._
    for (in <- Seq(net, NetworkGen.generate(spark, NetworkGen.prosperLike, 0.0003))) {
      val (n, _) = PatternEnum.p4(in)
      assert(n > 0, "no P4 instance to count")
      Oracle.assertEquivalent(Seq(n).toDF("n"),
        """
        WITH e AS (SELECT DISTINCT src, dst FROM net)
        SELECT COUNT(*) AS n FROM e e1
        JOIN e e2 ON e1.dst = e2.src
        JOIN e e3 ON e2.dst = e3.src AND e3.dst = e1.src
        JOIN e e4 ON e4.src = e1.src AND e4.dst = e2.dst
        JOIN e e5 ON e5.src = e1.dst AND e5.dst = e1.src
        WHERE e1.src <> e1.dst AND e2.dst <> e1.src AND e2.dst <> e1.dst
        """,
        "net" -> in)
    }
  }

  test("p4Limited caps the instance count") {
    val (full, _) = PatternEnum.p4(net)
    if (full > 1) {
      val (capped, _) = PatternEnum.p4Limited(net, 1L)
      assert(capped === 1L)
    }
  }
}
