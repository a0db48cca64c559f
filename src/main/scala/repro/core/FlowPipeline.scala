package repro.core

/** The four flow computation methods compared in Section 6.2, plus the
  * class A/B/C subgraph taxonomy used by Tables 6–8.
  *
  *  - '''Greedy''': single time-ordered scan (may under-estimate max flow).
  *  - '''LP''': direct linear-programming max flow.
  *  - '''Pre''': Lemma-2 solubility check → greedy; else Algorithm-1
  *    preprocessing, re-check, greedy or LP.
  *  - '''PreSim''': Pre, and when LP is still needed, Algorithm-2
  *    simplification first (the paper's complete solution). There is no
  *    second solubility check after it: simplification keeps the out-degree
  *    of every vertex it keeps, and when the source has no in-edge it breaks
  *    no cycle, so the Lemma 2 verdict cannot change (DESIGN.md §2).
  *
  * Classes: '''A''' — soluble by greedy as-is; '''B''' — soluble by greedy
  * after preprocessing (including graphs proved zero-flow by preprocessing);
  * '''C''' — LP still required after preprocessing.
  */
object FlowPipeline {

  sealed abstract class SubgraphClass(val name: String)
  case object ClassA extends SubgraphClass("A")
  case object ClassB extends SubgraphClass("B")
  case object ClassC extends SubgraphClass("C")

  final case class Outcome(flow: Double, cls: SubgraphClass, usedLP: Boolean)

  def greedy(g: FlowGraph): Double = Greedy.flow(g)

  def lp(g: FlowGraph): Double = MaxFlowLP.maxFlow(g)

  /** Max flow via time-expanded Dinic — not one of the paper's compared
    * methods, but the fast exact solver implied by the Section 4.2.1
    * equivalence; used as the correctness oracle.
    */
  def dinic(g: FlowGraph): Double = repro.maxflow.TimeExpanded.maxFlow(g)

  def pre(g: FlowGraph): Outcome = preImpl(g, simplify = false)

  def preSim(g: FlowGraph): Outcome = preImpl(g, simplify = true)

  private def preImpl(g: FlowGraph, simplify: Boolean): Outcome = {
    if (Solubility.solvableByGreedy(g)) Outcome(Greedy.flow(g), ClassA, usedLP = false)
    else {
      val p = Preprocess.run(g)
      if (p.zeroFlow) Outcome(0.0, ClassB, usedLP = false)
      else if (Solubility.solvableByGreedy(p.graph))
        Outcome(Greedy.flow(p.graph), ClassB, usedLP = false)
      else if (!simplify) Outcome(MaxFlowLP.maxFlow(p.graph), ClassC, usedLP = true)
      else Outcome(MaxFlowLP.maxFlow(Simplify.run(p.graph).graph), ClassC, usedLP = true)
    }
  }
}
