package repro.patterns

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._
import repro.core.Greedy
import repro.data.CyclePaths
import repro.data.CyclePaths.TsQty

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
  * computation. All tables are DataFrames produced by Catalyst joins over
  * the network's cached per-edge table `CyclePaths.edges`.
  */
object PathTables {

  final case class ChainOut(flow: Double, arrivals: Seq[TsQty])

  /** Greedy chain reduction over an `array` of consecutive edges' interactions. */
  private val chain: UserDefinedFunction = udf { (es: Seq[Seq[TsQty]]) =>
    val res = Greedy.chain(es.map(_.map(t => (t.ts, t.qty))))
    ChainOut(res.flow, res.sinkArrivals.map { case (t, q) => TsQty(t, q) })
  }

  /** The chain of edges `e1 .. ek` of a path join, reduced. */
  private def reduced(k: Int) = chain(array((1 to k).map(i => col(s"e$i.es")): _*)) as "r"

  /** 2-hop cycle table: `(a, b, flow, arrivals)`. */
  def l2(net: DataFrame): DataFrame =
    CyclePaths.cycles2(CyclePaths.edges(net))
      .select(col("e1.src") as "a", col("e1.dst") as "b", reduced(2))
      .select(col("a"), col("b"), col("r.flow") as "flow", col("r.arrivals") as "arrivals")

  /** 3-hop cycle table: `(a, b, c, flow, arrivals)`, `a,b,c` distinct. */
  def l3(net: DataFrame): DataFrame =
    CyclePaths.cycles3(CyclePaths.edges(net))
      .select(col("e1.src") as "a", col("e1.dst") as "b", col("e2.dst") as "c", reduced(3))
      .select(col("a"), col("b"), col("c"), col("r.flow") as "flow", col("r.arrivals") as "arrivals")

  /** 2-hop chain table: `(a, b, c, flow, arrivals)`, `a,b,c` distinct. */
  def c2(net: DataFrame): DataFrame =
    CyclePaths.chains2(CyclePaths.edges(net))
      .select(col("e1.src") as "a", col("e1.dst") as "b", col("e2.dst") as "c", reduced(2))
      .select(col("a"), col("b"), col("c"), col("r.flow") as "flow", col("r.arrivals") as "arrivals")
}
