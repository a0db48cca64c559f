package repro.patterns

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.FlowPipeline

/** Preprocessing-based pattern enumeration (PB, Section 5.2): instances are
  * assembled from the precomputed path tables by scans, aggregations and,
  * for P5 and P6, joins (merge joins in the paper; Catalyst sort-merge joins
  * here — broadcast is disabled in the test config), and flows of
  * independent parallel paths are sums of the precomputed chain flows
  * (Lemma 3). Only P4, whose chords make the cycle non-independent, gains
  * nothing from the tables: it browses the network and computes each
  * instance's flow by LP — exactly the paper's observation for Bitcoin P4*.
  *
  * Every function returns `(instances, avgFlow)` for one pattern of
  * Tables 9–11.
  */
object PatternEnum {

  private def countAvg(df: DataFrame, flowCol: String): (Long, Double) = {
    val r = df.agg(count(lit(1)), avg(col(flowCol))).head()
    (r.getLong(0), if (r.isNullAt(1)) 0.0 else r.getDouble(1))
  }

  /** P1 — 2-hop chains: a straight scan of C2. */
  def p1(c2: DataFrame): (Long, Double) = countAvg(c2, "flow")

  /** P2 — pairs of 2-hop cycles sharing `a` (unordered). The intermediates
    * of two L2 rows at the same `a` are distinct by construction, so the
    * pair join collapses to per-`a` combinatorics: `C(n_a, 2)` instances
    * with total flow `(n_a - 1) * Σ flow_a` — this closed form is what lets
    * PB report tens of billions of instances in seconds (the paper's
    * Bitcoin P2 row: 22.3G instances, 30.59 s).
    */
  def p2(l2: DataFrame): (Long, Double) = {
    val perA = l2.groupBy(col("a")).agg(count(lit(1)) as "n", sum(col("flow")) as "f")
    val r = perA
      .select((col("n") * (col("n") - 1) / 2).cast("long") as "pairs",
              ((col("n") - 1) * col("f")) as "flowsum")
      .agg(sum(col("pairs")), sum(col("flowsum")))
      .head()
    val pairs = if (r.isNullAt(0)) 0L else r.getLong(0)
    val fsum  = if (r.isNullAt(1)) 0.0 else r.getDouble(1)
    (pairs, if (pairs == 0) 0.0 else fsum / pairs)
  }

  /** P3 — 3-hop cycles: a straight scan of L3. */
  def p3(l3: DataFrame): (Long, Double) = countAvg(l3, "flow")

  /** P4 — 3-hop cycle plus chords `a→c`, `b→a`. The chords couple the paths,
    * so precomputed flows are unusable: P4 is browsed like the path tables,
    * rooted at every vertex `a`, and each instance's max flow runs through
    * the Section 4 pipeline (PreSim → LP) on its raw interactions, as in GB.
    * With a `cap`, the `cap` instances with the smallest `(a, b, c)` are
    * kept: a task's slice is ascending and `enumerate` yields its instances
    * in ascending `(a, b, c)`, so each task computes the flows of its first
    * `cap` only, and a top-k over the tasks' instances keeps the global ones.
    */
  def p4(net: DataFrame, cap: Option[Long] = None): (Long, Double) = {
    val flows = GraphBrowsing.browse(net) { (adj, a) =>
      val mus = Vector.newBuilder[Array[Int]]
      GraphBrowsing.enumerate(adj, Patterns.P4, startVertices = Some(Array(a)))(mus += _)
      mus.result().iterator.map { mu => // lazy, so a capped task computes only the flows it keeps
        ((mu(0), mu(1), mu(2)), FlowPipeline.preSim(GraphBrowsing.instanceGraph(adj, Patterns.P4, mu)).flow)
      }
    }
    val (n, sum) = cap match {
      case None    => flows.aggregate((0L, 0.0))((acc, r) => (acc._1 + 1, acc._2 + r._2),
                                                 (x, y) => (x._1 + y._1, x._2 + y._2))
      case Some(c) =>
        val kept = flows.mapPartitions(_.take(c.toInt)).takeOrdered(c.toInt)(Ordering.by(_._1))
        (kept.length.toLong, kept.foldLeft(0.0)(_ + _._2))
    }
    (n, if (n == 0) 0.0 else sum / n)
  }

  /** P4 capped at `cap` instances, those with the smallest `(a, b, c)` (the
    * paper's starred protocol: "search … was terminated after finding the
    * first 3000 instances").
    */
  def p4Limited(net: DataFrame, cap: Long): (Long, Double) = p4(net, Some(cap))

  /** P5 — one 2-hop and one 3-hop cycle sharing `a`, intermediates distinct:
    * the merge-join of L2 and L3 described for Figure 8(a).
    */
  def p5(l2: DataFrame, l3: DataFrame): (Long, Double) = {
    val joined = l2.as("x")
      .join(l3.as("y"), col("x.a") === col("y.a")
        && col("x.b") =!= col("y.b") && col("x.b") =!= col("y.c"))
      .select((col("x.flow") + col("y.flow")) as "flow")
    countAvg(joined, "flow")
  }

  /** P6 — pairs of 3-hop cycles sharing `a`, all intermediates distinct
    * (unordered: `b1 < b2`).
    */
  def p6(l3: DataFrame): (Long, Double) = {
    val paired = l3.as("x")
      .join(l3.as("y"), col("x.a") === col("y.a") && col("x.b") < col("y.b")
        && col("x.c") =!= col("y.b") && col("x.c") =!= col("y.c") && col("y.c") =!= col("x.b"))
      .select((col("x.flow") + col("y.flow")) as "flow")
    countAvg(paired, "flow")
  }

  /** RP1 — non-rigid parallel 2-hop chains: aggregate C2 per `(a, c)`. */
  def rp1(c2: DataFrame): (Long, Double) =
    countAvg(c2.groupBy(col("a"), col("c")).agg(sum(col("flow")) as "flow"), "flow")

  /** RP2 — non-rigid parallel 2-hop cycles (Fig. 9(b)): aggregate L2 per `a`. */
  def rp2(l2: DataFrame): (Long, Double) =
    countAvg(l2.groupBy(col("a")).agg(sum(col("flow")) as "flow"), "flow")

  /** RP3 — non-rigid parallel 3-hop cycles: aggregate L3 per `a`. */
  def rp3(l3: DataFrame): (Long, Double) =
    countAvg(l3.groupBy(col("a")).agg(sum(col("flow")) as "flow"), "flow")
}
