// Tests for the Section-2 construction: patches, instance builders, global
// oracles, the Id-oblivious P' verifier (completeness + mutation soundness),
// the id-based P decider, the coverage audit, and the promise problem.
#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "exec/verdict_cache.h"
#include "graph/generators.h"
#include "local/ball.h"
#include "local/indistinguishability.h"
#include "local/property.h"
#include "local/simulator.h"
#include "trees/audit.h"
#include "trees/construction.h"
#include "trees/decide.h"
#include "trees/promise_cycle.h"

namespace locald::trees {
namespace {

using local::IdAssignment;
using local::LabeledGraph;
using local::Verdict;

TreeParams params(int r) {
  TreeParams p;
  p.r = r;
  p.f = local::IdBound::linear_plus(1);
  return p;
}

TEST(TreeParams, CapitalR) {
  EXPECT_EQ(params(1).capital_R(), 7);   // f(2^2 + 1 + 1) = 6 + 1
  EXPECT_EQ(params(2).capital_R(), 12);  // f(8 + 3)
  EXPECT_EQ(params(3).capital_R(), 21);  // f(16 + 4)
}

TEST(Patch, SubtreeAndContainment) {
  const TreeParams p = params(2);
  const Patch h = subtree_patch(p, 1, 2);  // root (1, 2), depth 2
  EXPECT_EQ(h.bottom_left, 4);
  EXPECT_EQ(h.bottom_right, 7);
  EXPECT_TRUE(h.contains(1, 2));
  EXPECT_TRUE(h.contains(2, 3));
  EXPECT_TRUE(h.contains(5, 4));
  EXPECT_FALSE(h.contains(0, 2));
  EXPECT_FALSE(h.contains(8, 4));
  EXPECT_FALSE(h.contains(1, 1));
  EXPECT_TRUE(h.valid(p));
}

TEST(Patch, TrapezoidIntervals) {
  Patch h;
  h.r = 3;
  h.y0 = 2;
  h.bottom_left = 5;
  h.bottom_right = 12;
  EXPECT_EQ(h.left(3), 5);
  EXPECT_EQ(h.right(3), 12);
  EXPECT_EQ(h.left(2), 2);
  EXPECT_EQ(h.right(2), 6);
  EXPECT_EQ(h.left(1), 1);
  EXPECT_EQ(h.right(1), 3);
  EXPECT_EQ(h.left(0), 0);
  EXPECT_EQ(h.right(0), 1);
}

TEST(Patch, BorderOfRootSubtree) {
  const TreeParams p = params(2);
  const Coord R = p.capital_R();
  const Patch h = subtree_patch(p, 0, 0);
  // Root subtree: only the bottom row is border (children exist below since
  // y0 + r = 2 < R).
  const auto border = expected_border(h, R);
  ASSERT_EQ(border.size(), 4u);
  for (const auto& c : border) {
    EXPECT_EQ(c.y, 2);
  }
  EXPECT_FALSE(is_border(h, 0, 0, R));
  EXPECT_FALSE(is_border(h, 1, 1, R));
}

TEST(Patch, BorderOfMidSubtree) {
  const TreeParams p = params(2);
  const Coord R = p.capital_R();
  const Patch h = subtree_patch(p, 1, 2);  // interior root
  // Border: root (parent + level-neighbours outside), side columns, bottom.
  EXPECT_TRUE(is_border(h, 1, 2, R));
  EXPECT_TRUE(is_border(h, 2, 3, R));   // left column
  EXPECT_TRUE(is_border(h, 3, 3, R));   // right column
  EXPECT_TRUE(is_border(h, 5, 4, R));   // bottom row
  const auto border = expected_border(h, R);
  EXPECT_EQ(border.size(), 1u + 2u + 4u);  // root + two level-1 + bottom 4
}

TEST(Patch, AlignmentBoundaryNodeHasNoSubtreeWitnessButPatchWitness) {
  // The reproduction finding: x = 2^r at the bottom level is on the left
  // column of every aligned subtree containing it, yet a trapezoid patch
  // covers it.
  const TreeParams p = params(3);
  const Coord R = p.capital_R();
  const Coord x = 8;  // 2^r
  EXPECT_FALSE(has_subtree_witness(p, x, R));
  const auto w = witness_patch(p, x, R);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->contains(x, R));
  EXPECT_FALSE(is_border(*w, x, R, R));
  // An interior bottom node has a subtree witness just fine.
  EXPECT_TRUE(has_subtree_witness(p, 3, R));
}

TEST(Builders, TShape) {
  const TreeParams p = params(2);
  const LabeledGraph T = build_T(p);
  EXPECT_EQ(T.node_count(), (1 << 13) - 1);
  EXPECT_EQ(T.label(0), tree_label(2, 0, 0));
  EXPECT_EQ(T.label(4), tree_label(2, 1, 2));
  EXPECT_TRUE(is_T(p, T));
  EXPECT_FALSE(is_patch_instance(p, T));
}

TEST(Builders, PatchInstanceShape) {
  const TreeParams p = params(2);
  const Patch h = subtree_patch(p, 1, 2);
  const LabeledGraph g = build_patch_instance(p, h);
  EXPECT_EQ(g.node_count(), 8);  // 7 patch nodes + pivot
  EXPECT_EQ(g.label(7), pivot_label(2));
  EXPECT_TRUE(is_patch_instance(p, g));
  EXPECT_FALSE(is_T(p, g));
  // Pivot degree equals the border size.
  EXPECT_EQ(g.graph().degree(7), 7);
}

TEST(Oracles, RejectMutations) {
  const TreeParams p = params(2);
  const Patch h = subtree_patch(p, 0, 1);
  const LabeledGraph good = build_patch_instance(p, h);
  ASSERT_TRUE(is_patch_instance(p, good));

  LabeledGraph bad_label = good;
  bad_label.set_label(2, tree_label(2, 5, 5));
  EXPECT_FALSE(is_patch_instance(p, bad_label));

  LabeledGraph extra_edge = good;
  // Connect two non-adjacent tree nodes (coords not adjacent).
  bool added = false;
  for (graph::NodeId u = 0; u < good.node_count() - 1 && !added; ++u) {
    for (graph::NodeId v = u + 1; v < good.node_count() - 1 && !added; ++v) {
      const auto& lu = good.label(u);
      const auto& lv = good.label(v);
      if (!coords_adjacent({lu.at(2), lu.at(3)}, {lv.at(2), lv.at(3)},
                           p.capital_R()) &&
          !good.graph().has_edge(u, v)) {
        graph::EdgeList edges = good.graph().edges();
        edges.emplace_back(u, v);
        extra_edge = LabeledGraph(
            graph::CsrGraph::from_edges(good.node_count(), edges),
            good.labels());
        added = true;
      }
    }
  }
  ASSERT_TRUE(added);
  EXPECT_FALSE(is_patch_instance(p, extra_edge));

  LabeledGraph two_pivots = good;
  two_pivots.set_label(0, pivot_label(2));
  EXPECT_FALSE(is_patch_instance(p, two_pivots));
}

TEST(Verifier, AcceptsPatchInstancesAndT) {
  const TreeParams p = params(2);
  const auto verifier = make_P_prime_verifier(p);
  EXPECT_TRUE(local::run_oblivious(*verifier, build_T(p)).accepted);
  const Coord R = p.capital_R();
  // Sweep a variety of patches: aligned and trapezoidal, at several levels.
  std::vector<Patch> patches;
  patches.push_back(subtree_patch(p, 0, 0));
  patches.push_back(subtree_patch(p, 1, 2));
  patches.push_back(subtree_patch(p, 5, 3));
  patches.push_back(subtree_patch(p, 0, static_cast<Coord>(R) - 2));
  for (const auto& [y0, bL, bR] :
       std::vector<std::tuple<Coord, Coord, Coord>>{
           {1, 3, 6}, {2, 5, 8}, {3, 17, 20}, {R - 2, 100, 103},
           {R - 2, 0, 3}, {4, 33, 36}}) {
    Patch h;
    h.r = p.r;
    h.y0 = y0;
    h.bottom_left = bL;
    h.bottom_right = bR;
    ASSERT_TRUE(h.valid(p)) << y0 << " " << bL << " " << bR;
    patches.push_back(h);
  }
  for (const Patch& h : patches) {
    const LabeledGraph g = build_patch_instance(p, h);
    const auto run = local::run_oblivious(*verifier, g);
    EXPECT_TRUE(run.accepted)
        << "patch y0=" << h.y0 << " [" << h.bottom_left << ","
        << h.bottom_right << "] rejected at node "
        << (run.first_rejecting ? *run.first_rejecting : -1);
  }
}

TEST(Verifier, RejectsLabelMutations) {
  const TreeParams p = params(2);
  const auto verifier = make_P_prime_verifier(p);
  const LabeledGraph good = build_patch_instance(p, subtree_patch(p, 1, 2));
  Rng rng(31);
  int rejected = 0;
  const int trials = 30;
  for (int i = 0; i < trials; ++i) {
    LabeledGraph bad = good;
    const graph::NodeId v =
        static_cast<graph::NodeId>(rng.below(good.node_count()));
    // Corrupt one label field.
    local::Label l = bad.label(v);
    std::vector<std::int64_t> fields = l.fields();
    fields[rng.below(fields.size())] += 1 + static_cast<std::int64_t>(rng.below(3));
    bad.set_label(v, local::Label(fields));
    if (!local::run_oblivious(*verifier, bad).accepted) {
      ++rejected;
    }
  }
  // Every single-label corruption must be caught (labels are load-bearing).
  EXPECT_EQ(rejected, trials);
}

TEST(Verifier, RejectsTPlusPivotAttack) {
  // T_r with an extra pivot glued to the border of an aligned subtree
  // passes the pivot's own check but must be rejected at the border nodes,
  // whose presence pattern is too full for any patch.
  const TreeParams p = params(2);
  const Coord R = p.capital_R();
  LabeledGraph attack = build_T(p);
  const Patch h = subtree_patch(p, 0, 0);
  // Rebuild T_r with one extra pivot node glued to the border.
  const graph::NodeId pivot = attack.node_count();
  std::vector<local::Label> labels;
  for (graph::NodeId v = 0; v < attack.node_count(); ++v) {
    labels.push_back(attack.label(v));
  }
  labels.push_back(pivot_label(p.r));
  graph::EdgeList edges = attack.graph().edges();
  for (const CoordPair& c : expected_border(h, R)) {
    edges.emplace_back(pivot, static_cast<graph::NodeId>(graph::TreeIndex::id(
                                  static_cast<int>(c.y), c.x)));
  }
  const LabeledGraph bad(graph::CsrGraph::from_edges(pivot + 1, edges),
                         std::move(labels));
  const auto verifier = make_P_prime_verifier(p);
  const auto run = local::run_oblivious(*verifier, bad);
  EXPECT_FALSE(run.accepted);
}

TEST(Verifier, RejectsPatchWithoutPivot) {
  const TreeParams p = params(2);
  const LabeledGraph with_pivot =
      build_patch_instance(p, subtree_patch(p, 1, 2));
  // Rebuild the same instance minus the pivot node (last node).
  const graph::NodeId n = with_pivot.node_count() - 1;
  std::vector<local::Label> labels;
  for (graph::NodeId v = 0; v < n; ++v) {
    labels.push_back(with_pivot.label(v));
  }
  graph::EdgeList edges;
  for (const auto& [u, v] : with_pivot.graph().edges()) {
    if (u < n && v < n) {
      edges.emplace_back(u, v);
    }
  }
  const LabeledGraph orphan(graph::CsrGraph::from_edges(n, edges),
                            std::move(labels));
  const auto verifier = make_P_prime_verifier(p);
  EXPECT_FALSE(local::run_oblivious(*verifier, orphan).accepted);
}

TEST(Decider, SeparatesPatchesFromT) {
  const TreeParams p = params(2);
  const auto decider = make_P_decider(p);
  const auto property = property_P(p);
  std::vector<LabeledGraph> instances;
  instances.push_back(build_patch_instance(p, subtree_patch(p, 0, 0)));
  instances.push_back(build_patch_instance(p, subtree_patch(p, 3, 3)));
  Patch trap;
  trap.r = 2;
  trap.y0 = 2;
  trap.bottom_left = 5;
  trap.bottom_right = 8;
  instances.push_back(build_patch_instance(p, trap));
  instances.push_back(build_T(p));  // the no-instance
  Rng rng(7);
  const auto report = local::evaluate_decider(
      *decider, *property, instances, local::bounded_policy(p.f), 3, rng);
  EXPECT_TRUE(report.all_correct())
      << (report.failures.empty() ? "" : report.failures[0].detail);
}

TEST(Decider, RejectsGarbage) {
  const TreeParams p = params(2);
  const auto decider = make_P_decider(p);
  // A plain path mislabelled as tree nodes.
  LabeledGraph garbage(graph::make_path(5));
  for (graph::NodeId v = 0; v < 5; ++v) {
    garbage.set_label(v, tree_label(p.r, v, 3));
  }
  Rng rng(8);
  const IdAssignment ids = local::make_random_bounded(5, p.f, rng);
  EXPECT_FALSE(local::run_local_algorithm(*decider, garbage, ids).accepted);
}

// The P decider is gated on the P' verifier. Its evaluate() (gate, then
// tail) and the panel (gate through the cache, tail on top) agree node for
// node with the ungated formula it replaced — reject ids >= R(r), otherwise
// run the verifier — because the two "no if" rules commute.
TEST(Decider, GatedEvaluateAgreesWithThePanel) {
  const TreeParams p = params(2);
  const auto decider = make_P_decider(p);
  const auto verifier = make_P_prime_verifier(p);
  const auto R = static_cast<local::Id>(p.capital_R());
  std::vector<LabeledGraph> instances;
  instances.push_back(build_patch_instance(p, subtree_patch(p, 0, 0)));
  instances.push_back(build_patch_instance(p, subtree_patch(p, 3, 3)));
  instances.push_back(build_T(p));
  exec::ThreadPool pool(4);
  exec::VerdictCache cache;
  Rng rng(12);
  local::BallScratch scratch;
  for (const LabeledGraph& g : instances) {
    for (int trial = 0; trial < 3; ++trial) {
      // Bounded ids stay below R(r) on patches; on T_r most reach it.
      const IdAssignment ids =
          local::make_random_bounded(g.node_count(), p.f, rng);
      const local::RunResult panel =
          local::run_local_algorithm(*decider, g, ids, {{&pool, &cache}});
      for (graph::NodeId v = 0; v < g.node_count(); ++v) {
        const local::BallView ball = scratch.extract(g, &ids, v, 1);
        const Verdict ungated = ball.center_id() >= R
                                    ? Verdict::no
                                    : verifier->evaluate(ball.without_ids());
        ASSERT_EQ(decider->evaluate(ball), ungated) << "node " << v;
        ASSERT_EQ(panel.outputs[static_cast<std::size_t>(v)], ungated)
            << "node " << v;
      }
    }
  }
}

TEST(Decider, IsGenuinelyIdDependent) {
  const TreeParams p = params(2);
  const auto decider = make_P_decider(p);
  const LabeledGraph yes = build_patch_instance(p, subtree_patch(p, 0, 0));
  // With ids drawn from beyond the (B) bound the decider misfires on
  // yes-instances: ids >= R slip in — exactly the paper's point that the
  // decider lives in LD only under (B). Universe 2R makes both outcomes
  // likely per node.
  const auto probe = local::probe_id_dependence(
      *decider, yes, 2 * static_cast<local::Id>(p.capital_R()), 12, {{}, 9});
  EXPECT_TRUE(probe.some_node_output_changed);
}

TEST(Audit, FullPatchCoverageAtR3) {
  TreeParams p = params(3);
  Rng rng(10);
  const auto result = audit_tree_coverage(p, /*max_nodes=*/4000,
                                          /*canonical_sample=*/60, rng);
  EXPECT_EQ(result.nodes_audited, 4000u);
  EXPECT_TRUE(result.full_patch_coverage());
  // The literal aligned-subtree reading leaves alignment boundaries
  // uncovered.
  EXPECT_LT(result.subtree_covered, result.nodes_audited);
  EXPECT_GT(result.subtree_fraction(), 0.5);
  // Canonical ball comparison against real instances: no mismatches.
  EXPECT_EQ(result.canonical_checked, 60u);
  EXPECT_EQ(result.canonical_mismatch, 0u);
}

TEST(Audit, LargeSampleStaysFullyCovered) {
  // Nothing audits all 4.2M nodes of T_3 exhaustively: fig1-layered-trees
  // samples 100,000 of them at r = 3, and here a smaller sample must stay
  // fully covered.
  TreeParams p = params(3);
  Rng rng(11);
  const auto result = audit_tree_coverage(p, 30'000, 0, rng);
  EXPECT_EQ(result.nodes_audited, 30'000u);
  EXPECT_TRUE(result.full_patch_coverage());
}

TEST(PromiseCycle, DeciderCorrectUnderPromiseAndBound) {
  PromiseCycleParams pc;
  pc.r = 6;
  pc.f = local::IdBound::quadratic();  // f(6) = 37, no-length 38
  const auto decider = make_promise_cycle_decider(pc);
  const auto property = promise_cycle_property(pc);
  const LabeledGraph yes = build_yes_cycle(pc);
  const LabeledGraph no = build_no_cycle(pc);
  EXPECT_TRUE(property->contains(yes));
  EXPECT_FALSE(property->contains(no));
  Rng rng(12);
  const auto report = local::evaluate_decider(
      *decider, *property, {yes, no}, local::bounded_policy(pc.f), 5, rng);
  EXPECT_TRUE(report.all_correct());
}

TEST(PromiseCycle, InstancesObliviouslyIndistinguishable) {
  PromiseCycleParams pc;
  pc.r = 6;
  const auto profile =
      local::BallProfile::of_graph(build_yes_cycle(pc), 1);
  const auto audit =
      local::audit_indistinguishability(build_no_cycle(pc), profile);
  EXPECT_TRUE(audit.indistinguishable());
}

class PatchSweep : public ::testing::TestWithParam<int> {};

// Oracle and verifier agree on randomly drawn patches.
TEST_P(PatchSweep, OracleVerifierAgreement) {
  const TreeParams p = params(2);
  const Coord R = p.capital_R();
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  const auto verifier = make_P_prime_verifier(p);
  for (int i = 0; i < 5; ++i) {
    const Coord y0 = static_cast<Coord>(rng.below(static_cast<std::uint64_t>(R - p.r + 1)));
    const Coord level = Coord{1} << (y0 + p.r);
    const Coord width = 1 + static_cast<Coord>(rng.below(1 << p.r));
    const Coord bL = static_cast<Coord>(rng.below(static_cast<std::uint64_t>(level - width + 1)));
    Patch h;
    h.r = p.r;
    h.y0 = y0;
    h.bottom_left = bL;
    h.bottom_right = bL + width - 1;
    ASSERT_TRUE(h.valid(p));
    const LabeledGraph g = build_patch_instance(p, h);
    ASSERT_TRUE(is_patch_instance(p, g));
    EXPECT_TRUE(local::run_oblivious(*verifier, g).accepted)
        << "y0=" << y0 << " bL=" << bL << " w=" << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatchSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace locald::trees
