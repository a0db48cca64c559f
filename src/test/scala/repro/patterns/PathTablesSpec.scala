package repro.patterns

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{Greedy, Interaction}
import repro.data.NetworkGen

/** Tests for the precomputed path tables (Section 5.2): structure checked
  * against DuckDB joins, flows against the in-memory chain greedy.
  */
class PathTablesSpec extends SparkSpec {

  /** 1↔2, 1↔3, 3→4→5→3, 2→4, plus multi-interaction edges. */
  private lazy val net = {
    val s = spark
    import s.implicits._
    Seq(
      Interaction(1, 2, 1L, 5.0),
      Interaction(2, 1, 4L, 3.0),
      Interaction(1, 2, 7L, 2.0),
      Interaction(1, 3, 2L, 6.0),
      Interaction(3, 1, 5L, 4.0),
      Interaction(3, 4, 3L, 7.0),
      Interaction(4, 5, 6L, 4.0),
      Interaction(5, 3, 8L, 2.0),
      Interaction(2, 4, 9L, 1.0),
    ).toDF()
  }

  /** The fixture plus self-loops `1→1`, `4→4` and a second `3→4` interaction. */
  private lazy val withLoops = {
    val s = spark
    import s.implicits._
    net.union(Seq(
      Interaction(1, 1, 10L, 1.0),
      Interaction(4, 4, 11L, 2.0),
      Interaction(3, 4, 12L, 3.0),
    ).toDF())
  }

  /** Every network each table is checked on: the fixture, the fixture with
    * self-loops, and a small dense generated one.
    */
  private lazy val inputs = Seq(net, withLoops, NetworkGen.generate(spark, NetworkGen.prosperLike, 0.0003))

  /** Every row's `flow` and `arrivals` are the greedy chain over its path's
    * edges; `path` lists the row's vertices along the path.
    */
  private def assertChainGreedy(table: DataFrame => DataFrame, path: Row => Seq[Int]): Unit =
    for (in <- inputs) {
      val adj  = AdjacencyIndex.fromNetwork(in)
      val rows = table(in).collect()
      assert(rows.nonEmpty)
      rows.foreach { r =>
        val vs       = path(r)
        val expected = Greedy.chain(vs.zip(vs.tail).map { case (u, w) => adj.interactions(u, w) })
        val n        = r.length
        assert(math.abs(r.getDouble(n - 2) - expected.flow) < 1e-9, s"flow mismatch for $vs")
        assert(r.getSeq[Row](n - 1).map(x => (x.getLong(0), x.getDouble(1))) === expected.sinkArrivals,
          s"arrivals mismatch for $vs")
      }
    }

  test("L2 vertex pairs match the DuckDB self-join (oracle)") {
    for (in <- inputs) {
      val l2 = PathTables.l2(in).select(col("a").cast("string") as "a", col("b").cast("string") as "b")
      Oracle.assertEquivalent(l2,
        """
        WITH e AS (SELECT DISTINCT src, dst FROM net)
        SELECT e1.src AS a, e1.dst AS b
        FROM e e1 JOIN e e2 ON e1.dst = e2.src AND e2.dst = e1.src
        WHERE e1.src <> e1.dst
        """,
        "net" -> in)
    }
  }

  test("L3 vertex triples match the DuckDB self-join (oracle)") {
    for (in <- inputs) {
      val l3 = PathTables.l3(in).select(col("a").cast("string") as "a",
        col("b").cast("string") as "b", col("c").cast("string") as "c")
      Oracle.assertEquivalent(l3,
        """
        WITH e AS (SELECT DISTINCT src, dst FROM net)
        SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
        FROM e e1
        JOIN e e2 ON e1.dst = e2.src AND e2.dst <> e1.src
        JOIN e e3 ON e2.dst = e3.src AND e3.dst = e1.src
        WHERE e1.src <> e1.dst AND e2.dst <> e1.dst
        """,
        "net" -> in)
    }
  }

  test("C2 chain triples match the DuckDB self-join (oracle)") {
    for (in <- inputs) {
      val c2 = PathTables.c2(in).select(col("a").cast("string") as "a",
        col("b").cast("string") as "b", col("c").cast("string") as "c")
      Oracle.assertEquivalent(c2,
        """
        WITH e AS (SELECT DISTINCT src, dst FROM net)
        SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
        FROM e e1 JOIN e e2 ON e1.dst = e2.src AND e2.dst <> e1.src AND e2.dst <> e1.dst
        WHERE e1.src <> e1.dst
        """,
        "net" -> in)
    }
  }

  test("L2 flows equal the in-memory chain greedy") {
    assertChainGreedy(PathTables.l2, r => Seq(r.getInt(0), r.getInt(1), r.getInt(0)))
  }

  test("L3 flows equal the in-memory chain greedy") {
    assertChainGreedy(PathTables.l3, r => Seq(r.getInt(0), r.getInt(1), r.getInt(2), r.getInt(0)))
  }

  test("C2 flows equal the in-memory chain greedy") {
    assertChainGreedy(PathTables.c2, r => Seq(r.getInt(0), r.getInt(1), r.getInt(2)))
  }

  test("concrete L2 flow value: cycle 1->2->1") {
    // (1,5) out; (4,3) back transfers 3; (7,2) out again (ignored for flow into 1).
    val f = PathTables.l2(net).where(col("a") === 1 && col("b") === 2).head().getDouble(2)
    assert(f === 3.0)
  }

  test("concrete L3 flow value: cycle 3->4->5->3") {
    // (3,7): B4=7; (6,4): transfers 4 to 5; (8,2): transfers 2 back to 3.
    val f = PathTables.l3(net).where(col("a") === 3).head().getDouble(3)
    assert(f === 2.0)
  }

  test("tables contain no degenerate rows (a<>b, distinct triples)") {
    for (in <- inputs) {
      assert(PathTables.l2(in).where(col("a") === col("b")).count() === 0)
      assert(PathTables.l3(in).where(col("a") === col("b") || col("b") === col("c") || col("a") === col("c")).count() === 0)
      assert(PathTables.c2(in).where(col("a") === col("b") || col("b") === col("c") || col("a") === col("c")).count() === 0)
    }
  }
}
