package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.maxflow.TimeExpanded

/** Randomised cross-method invariants (the correctness backbone of the
  * reproduction): on arbitrary small interaction DAGs (and cyclic cycle-seed
  * shapes),
  *
  *   greedy <= max flow,
  *   LP == time-expanded Dinic,
  *   Pre == PreSim == LP,
  *   preprocessing and simplification preserve the max flow,
  *   preprocessing is idempotent,
  *   Lemma 2 graphs: greedy == max flow,
  *   and with tied timestamps: greedy <= max flow, LP == Pre == PreSim == max flow;
  *   the first three also with every quantity scaled by 10^-2..10^6 (`wide`).
  *
  * (Driven by raw ScalaCheck generators — the scalatest-scalacheck bridge is
  * not among the offline dependencies, so sampling is explicit.)
  */
class InvariantPropertiesSpec extends SparkSpec {
  private val Tol = 1e-6
  private val Cases = 300

  /** Deterministically sample `Cases` graphs from `gen` and assert `p`. */
  private def checkProp(name: String, gen: Gen[FlowGraph])(p: FlowGraph => Boolean): Unit = {
    var seed = Seed(0xC0FFEEL)
    var i    = 0
    var sampled = 0
    while (sampled < Cases && i < Cases * 3) {
      gen.apply(Gen.Parameters.default, seed) match {
        case Some(g) =>
          sampled += 1
          assert(p(g), s"$name failed on sample #$sampled: $g edges=${g.edges}")
        case None =>
      }
      seed = seed.next
      i += 1
    }
    assert(sampled >= Cases / 2, s"$name: generator produced too few samples ($sampled)")
  }

  private def maxFlowRef(g: FlowGraph): Double = TimeExpanded.maxFlow(g)

  /** Cyclic cycle-seed shapes; at 12 vertices, cut-off cycle vertices are
    * common enough to exercise preprocessing's repeated passes.
    */
  private val cyclicShapes = Seq(TestGraphs.genMaybeCyclic(), TestGraphs.genMaybeCyclic(maxV = 12))

  /** `gen`, then `gen` with wide quantities. */
  private def withWide(gen: Gen[FlowGraph]): Seq[Gen[FlowGraph]] = Seq(gen, TestGraphs.wide(gen))

  test("property: greedy never exceeds the max flow (DAGs)") {
    for (gen <- withWide(TestGraphs.genDag())) checkProp("greedy<=max", gen) { g =>
      Greedy.flow(g) <= maxFlowRef(g) + Tol
    }
  }

  test("property: LP equals time-expanded Dinic (DAGs)") {
    for (gen <- withWide(TestGraphs.genDag())) checkProp("lp==dinic", gen) { g =>
      math.abs(MaxFlowLP.maxFlow(g) - maxFlowRef(g)) < Tol
    }
  }

  test("property: LP equals time-expanded Dinic (cyclic shapes)") {
    for (gen <- withWide(TestGraphs.genMaybeCyclic())) checkProp("lp==dinic/cyclic", gen) { g =>
      math.abs(MaxFlowLP.maxFlow(g) - maxFlowRef(g)) < Tol
    }
  }

  test("property: preprocessing preserves the max flow") {
    checkProp("preprocess", TestGraphs.genDag()) { g =>
      val pr    = Preprocess.run(g)
      val after = if (pr.zeroFlow) 0.0 else maxFlowRef(pr.graph)
      math.abs(maxFlowRef(g) - after) < Tol
    }
  }

  test("property: preprocessing preserves the max flow on cyclic shapes") {
    for (gen <- cyclicShapes) checkProp("preprocess/cyclic", gen) { g =>
      val pr    = Preprocess.run(g)
      val after = if (pr.zeroFlow) 0.0 else maxFlowRef(pr.graph)
      math.abs(maxFlowRef(g) - after) < Tol
    }
  }

  test("property: preprocessing is idempotent") {
    for (gen <- Seq(TestGraphs.genDag(), TestGraphs.genMaybeCyclic(maxV = 12))) checkProp("idempotent", gen) { g =>
      val again = Preprocess.run(Preprocess.run(g).graph)
      again.removedInteractions == 0 && again.removedEdges == 0 && again.removedVertices == 0
    }
  }

  test("property: simplification preserves the max flow") {
    checkProp("simplify", TestGraphs.genDag()) { g =>
      math.abs(maxFlowRef(g) - maxFlowRef(Simplify.run(g).graph)) < Tol
    }
  }

  test("property: Pre and PreSim equal LP") {
    for (gen <- withWide(TestGraphs.genDag())) checkProp("pre/presim", gen) { g =>
      val ref = maxFlowRef(g)
      math.abs(FlowPipeline.pre(g).flow - ref) < Tol &&
      math.abs(FlowPipeline.preSim(g).flow - ref) < Tol
    }
  }

  test("property: Pre and PreSim equal the max flow on cyclic shapes") {
    for (gen <- cyclicShapes.flatMap(withWide)) checkProp("pre/presim/cyclic", gen) { g =>
      val ref = maxFlowRef(g)
      math.abs(FlowPipeline.pre(g).flow - ref) < Tol &&
      math.abs(FlowPipeline.preSim(g).flow - ref) < Tol
    }
  }

  test("property: Lemma 2 condition implies greedy == max flow") {
    checkProp("lemma2", TestGraphs.genDag()) { g =>
      !Solubility.solvableByGreedy(g) || math.abs(Greedy.flow(g) - maxFlowRef(g)) < Tol
    }
  }

  test("property: what the buffers hold never exceeds what left the source") {
    checkProp("conservation", TestGraphs.genDag()) { g =>
      val r        = Greedy.run(g)
      val injected = g.interactions.filter(_.src == g.source).map(_.qty).sum
      r.buffers.values.sum <= injected + Tol
    }
  }

  test("property: tied timestamps: greedy <= max flow, LP == Pre == PreSim == max flow") {
    for (gen <- Seq(TestGraphs.genDag(), TestGraphs.genMaybeCyclic(maxV = 12))) checkProp("tied", TestGraphs.tied(gen)) { g =>
      val ref = maxFlowRef(g)
      Greedy.flow(g) <= ref + Tol &&
      math.abs(MaxFlowLP.maxFlow(g) - ref) < Tol &&
      math.abs(FlowPipeline.pre(g).flow - ref) < Tol &&
      math.abs(FlowPipeline.preSim(g).flow - ref) < Tol
    }
  }
}
