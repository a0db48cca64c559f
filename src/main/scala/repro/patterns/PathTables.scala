package repro.patterns

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

/** Path precomputation (Section 5.2): tables of small path instances with
  * the interaction sequence that enters the buffer of the path's end vertex
  * under the greedy algorithm — i.e. the Lemma 3 reduction of each path to a
  * single edge, stored as data.
  *
  * Like the paper we materialise, per network:
  *   - `L2` — 2-hop cycles `a→b→a`;
  *   - `L3` — 3-hop cycles `a→b→c→a`;
  *   - `C2` — 2-hop chains `a→b→c` (only affordable for the dense-but-small
  *     Prosper-like network, as in Section 6.3).
  *
  * Each row carries `flow` (total arriving quantity) and `arrivals` (the
  * reduced edge's interaction sequence), so flows of patterns whose paths are
  * independent are sums/merges of table rows with no further flow
  * computation. The rows are found like GB's: [[GraphBrowsing.browse]] roots
  * the path's pattern at every vertex `a` of the network, and each instance
  * is reduced by [[GraphBrowsing.reducedChains]]. A cycle's rotations are
  * distinct rows, one per root.
  */
object PathTables {

  /** One interaction of a row's `arrivals`. */
  final case class TsQty(ts: Long, qty: Double)

  /** `(mu, flow, arrivals)` for every instance `mu` of the path pattern `chain`. */
  private def instances(net: DataFrame, chain: Pattern): RDD[(Array[Int], Double, Seq[TsQty])] =
    GraphBrowsing.browse(net) { (adj, a) =>
      val rows = Vector.newBuilder[(Array[Int], Double, Seq[TsQty])]
      GraphBrowsing.reducedChains(adj, chain, Some(Array(a))) { (mu, r) =>
        rows += ((mu, r.flow, r.sinkArrivals.map { case (t, q) => TsQty(t, q) }))
      }
      rows.result()
    }

  /** 2-hop cycle table: `(a, b, flow, arrivals)`, `a≠b`. */
  def l2(net: DataFrame): DataFrame = {
    import net.sparkSession.implicits._
    instances(net, Patterns.Cycle2).map { case (mu, f, as) => (mu(0), mu(1), f, as) }
      .toDF("a", "b", "flow", "arrivals")
  }

  /** 3-hop cycle table: `(a, b, c, flow, arrivals)`, `a,b,c` distinct. */
  def l3(net: DataFrame): DataFrame = {
    import net.sparkSession.implicits._
    instances(net, Patterns.P3).map { case (mu, f, as) => (mu(0), mu(1), mu(2), f, as) }
      .toDF("a", "b", "c", "flow", "arrivals")
  }

  /** 2-hop chain table: `(a, b, c, flow, arrivals)`, `a,b,c` distinct. */
  def c2(net: DataFrame): DataFrame = {
    import net.sparkSession.implicits._
    instances(net, Patterns.P1).map { case (mu, f, as) => (mu(0), mu(1), mu(2), f, as) }
      .toDF("a", "b", "c", "flow", "arrivals")
  }
}
