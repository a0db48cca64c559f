package repro.patterns

/** A network pattern (Definition 2): a DAG whose vertex labels encode only
  * equality constraints — equal labels must map to the same graph vertex,
  * distinct labels to distinct vertices (Definition 3). The graph itself is
  * unlabeled.
  *
  * Pattern vertices are `0 .. numVertices-1` **in topological order** (all
  * edges go from a smaller to a larger id), which is the browsing order of
  * Section 5.1, and `edges` are distinct and ascending by `(u, v)`, the edge
  * order of an instance's flow graph. `source`/`sink` designate the flow
  * endpoints of an instance; when they carry the same label the instance's
  * flow is a cycle flow (source split from sink, Section 4's reduction).
  *
  * `symmetry` lists pairs `(p, q)` with `μ(p) < μ(q)` enforced, breaking the
  * branch-swap symmetry of patterns with interchangeable parallel branches so
  * that instances are counted per **subgraph** (Definition 3), not per
  * mapping.
  */
final case class Pattern(
    name: String,
    labels: Vector[Int],
    edges: Vector[(Int, Int)],
    source: Int,
    sink: Int,
    symmetry: Vector[(Int, Int)] = Vector.empty,
) {
  val numVertices: Int = labels.size
  require(edges.forall { case (u, v) => u < v }, s"$name: vertices must be topologically ordered")
  require(edges.distinct.sorted == edges, s"$name: edges must be distinct and ascending")

  /** Pattern edges entering `p` from earlier vertices (the browsing frontier). */
  def predecessors(p: Int): Vector[Int] = edges.collect { case (u, v) if v == p => u }

  /** The ends of `edges`, which are in a flow graph's edge order. */
  private[patterns] val edgeSrc: Array[Int] = edges.map(_._1).toArray
  private[patterns] val edgeDst: Array[Int] = edges.map(_._2).toArray
}

/** The reconstructed pattern set of Figure 12 (the figure itself is absent
  * from the paper source; DESIGN.md §4 derives these from the text).
  */
object Patterns {

  /** P1 — 2-hop chain `a→b→c`, all vertices distinct. */
  val P1: Pattern = Pattern("P1", labels = Vector(0, 1, 2), edges = Vector((0, 1), (1, 2)), source = 0, sink = 2)

  /** 2-hop cycle `a→b→a`: the branch of P2 and of RP2. */
  val Cycle2: Pattern = Pattern("Cycle2", labels = Vector(0, 1, 0), edges = Vector((0, 1), (1, 2)), source = 0, sink = 2)

  /** P2 — two parallel 2-hop cycles `a→b→a`, `a→c→a` (Fig. 9(a), 2nd). */
  val P2: Pattern = Pattern(
    "P2",
    labels = Vector(0, 1, 2, 0), // a, b, c, a'
    edges = Vector((0, 1), (0, 2), (1, 3), (2, 3)),
    source = 0,
    sink = 3,
    symmetry = Vector((1, 2)),
  )

  /** P3 — 3-hop cycle `a→b→c→a`. */
  val P3: Pattern = Pattern(
    "P3",
    labels = Vector(0, 1, 2, 0),
    edges = Vector((0, 1), (1, 2), (2, 3)),
    source = 0,
    sink = 3,
  )

  /** P4 — 3-hop cycle with chords `a→c` and `b→a` (Fig. 8(b)): the branches
    * are not independent, so precomputed flows are unusable and the max flow
    * needs the LP pipeline.
    */
  val P4: Pattern = Pattern(
    "P4",
    labels = Vector(0, 1, 2, 0),
    edges = Vector((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)),
    source = 0,
    sink = 3,
  )

  /** P5 — a 2-hop cycle and a 3-hop cycle sharing the start (Fig. 8(a)). */
  val P5: Pattern = Pattern(
    "P5",
    labels = Vector(0, 1, 2, 3, 0), // a, e, b, c, a'
    edges = Vector((0, 1), (0, 2), (1, 4), (2, 3), (3, 4)),
    source = 0,
    sink = 4,
  )

  /** P6 — two parallel 3-hop cycles sharing the start, intermediates all
    * distinct.
    */
  val P6: Pattern = Pattern(
    "P6",
    labels = Vector(0, 1, 2, 3, 4, 0), // a, b, d, c, e, a'
    edges = Vector((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)),
    source = 0,
    sink = 5,
    symmetry = Vector((1, 2)),
  )

  val rigid: Seq[Pattern] = Seq(P1, P2, P3, P4, P5, P6)
}
