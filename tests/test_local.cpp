// Tests for the LOCAL-model framework: labels, identifier policies, ball
// extraction, canonical ball encodings, simulator semantics, enforced
// obliviousness, ball profiles and the indistinguishability auditor.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "local/ball.h"
#include "local/identifiers.h"
#include "local/indistinguishability.h"
#include "local/label.h"
#include "local/labeled_graph.h"
#include "local/property.h"
#include "local/simulator.h"

namespace locald::local {
namespace {

using graph::make_cycle;
using graph::make_grid;
using graph::make_path;

TEST(Label, FieldsAndComparison) {
  const Label a{1, 2, 3};
  const Label b{1, 2, 3};
  const Label c{1, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(c, a);  // lexicographic on fields
  EXPECT_EQ(a.at(2), 3);
  EXPECT_THROW(a.at(3), Error);
  EXPECT_EQ(a.to_string(), "(1,2,3)");
  EXPECT_EQ(Label{}.to_string(), "()");
}

TEST(Label, PayloadUnambiguous) {
  EXPECT_NE(Label({12}).payload(), Label({1, 2}).payload());
  EXPECT_NE(Label({-1}).payload(), Label({1}).payload());
}

TEST(LabeledGraph, UniformAndPerNodeLabels) {
  LabeledGraph g = LabeledGraph::uniform(make_path(3), Label{7});
  EXPECT_EQ(g.label(2).at(0), 7);
  g.set_label(1, Label{9});
  EXPECT_EQ(g.label(1).at(0), 9);
  EXPECT_EQ(g.label(0).at(0), 7);
  EXPECT_THROW(g.label(5), Error);
}

TEST(LabeledGraph, SizeMismatchRejected) {
  EXPECT_THROW(LabeledGraph(make_path(3), {Label{1}}), Error);
}

TEST(LabeledGraph, LabelPreservingIsomorphism) {
  LabeledGraph a(make_path(3), {Label{1}, Label{2}, Label{1}});
  LabeledGraph b(make_path(3), {Label{1}, Label{2}, Label{1}});
  LabeledGraph c(make_path(3), {Label{2}, Label{1}, Label{1}});
  EXPECT_TRUE(isomorphic(a, b));
  EXPECT_FALSE(isomorphic(a, c));
}

TEST(Identifiers, OneToOneEnforced) {
  EXPECT_NO_THROW(IdAssignment({3, 1, 4}));
  EXPECT_THROW(IdAssignment({3, 1, 3}), Error);
}

TEST(Identifiers, Consecutive) {
  const auto c = make_consecutive(4);
  EXPECT_EQ(c.of(2), 2u);
  EXPECT_EQ(c.raw(), (std::vector<Id>{0, 1, 2, 3}));
}

TEST(Identifiers, BoundedPolicyRespectsBound) {
  Rng rng(2);
  const IdBound f = IdBound::linear_plus(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto ids = make_random_bounded(10, f, rng);
    EXPECT_LT(std::ranges::max(ids.raw()), f(10));  // Id(v) < f(n) = 11
  }
}

TEST(Identifiers, UnboundedCanExceedAnyLinearBound) {
  Rng rng(3);
  const auto ids = make_random_unbounded(4, 1'000'000'000, rng);
  EXPECT_EQ(ids.node_count(), 4);
  // With a billion-sized universe the chance all four ids are < 8 is nil.
  EXPECT_GE(std::ranges::max(ids.raw()), IdBound::linear_plus(4)(4));
}

TEST(Ball, ExtractionRadiusZero) {
  LabeledGraph g = LabeledGraph::uniform(make_cycle(5), Label{1});
  const Ball b = extract_ball(g, nullptr, 2, 0);
  EXPECT_EQ(b.node_count(), 1);
  EXPECT_EQ(b.center, 0);
  EXPECT_FALSE(b.has_ids());
}

TEST(Ball, ExtractionIncludesEdgesAmongNeighbors) {
  // Triangle plus pendant: ball of radius 1 around node 0 must contain the
  // edge between its two triangle neighbours.
  LabeledGraph g(graph::CsrGraph::from_edges(
      4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}}));
  const Ball b = extract_ball(g, nullptr, 0, 1);
  EXPECT_EQ(b.node_count(), 3);
  EXPECT_EQ(b.g.edge_count(), 3u);  // the triangle, not the pendant edge
}

TEST(Ball, IdsCarriedAndStripped) {
  LabeledGraph g = LabeledGraph::uniform(make_path(4), Label{});
  const IdAssignment ids({10, 20, 30, 40});
  const Ball b = extract_ball(g, &ids, 1, 1);
  ASSERT_TRUE(b.has_ids());
  EXPECT_EQ(b.center_id(), 20u);
  const BallView stripped = b.view().without_ids();
  EXPECT_FALSE(stripped.has_ids());
  EXPECT_EQ(stripped.node_count(), b.node_count());
}

TEST(Ball, WithIdsValidates) {
  LabeledGraph g = LabeledGraph::uniform(make_path(3), Label{});
  const Ball b = extract_ball(g, nullptr, 1, 1);
  EXPECT_THROW(b.view().with_ids({1, 1, 2}), Error);
  EXPECT_THROW(b.view().with_ids({1, 2}), Error);
  const std::vector<Id> fresh{5, 6, 7};
  const BallView c = b.view().with_ids(fresh);
  EXPECT_TRUE(c.has_ids());
}

TEST(Ball, CanonicalEncodingInvariantAcrossHostRelabeling) {
  // The same local structure extracted from different host positions of a
  // symmetric graph yields identical encodings.
  LabeledGraph g = LabeledGraph::uniform(make_cycle(8), Label{3});
  const std::string e0 =
      extract_ball(g, nullptr, 0, 2).canonical_encoding();
  const std::string e5 =
      extract_ball(g, nullptr, 5, 2).canonical_encoding();
  EXPECT_EQ(e0, e5);
}

TEST(Ball, CanonicalEncodingSeparatesCenter) {
  // Path a-b-c: ball around the middle differs from ball around an end even
  // though as graphs they may coincide (radius 2 sees the whole path).
  LabeledGraph g = LabeledGraph::uniform(make_path(3), Label{});
  const std::string middle =
      extract_ball(g, nullptr, 1, 2).canonical_encoding();
  const std::string end =
      extract_ball(g, nullptr, 0, 2).canonical_encoding();
  EXPECT_NE(middle, end);
}

TEST(Ball, CanonicalEncodingSeparatesLabels) {
  LabeledGraph a = LabeledGraph::uniform(make_path(3), Label{1});
  LabeledGraph b = LabeledGraph::uniform(make_path(3), Label{2});
  EXPECT_NE(extract_ball(a, nullptr, 1, 1).canonical_encoding(),
            extract_ball(b, nullptr, 1, 1).canonical_encoding());
}

TEST(Ball, CanonicalEncodingSeparatesIds) {
  LabeledGraph g = LabeledGraph::uniform(make_path(3), Label{});
  const IdAssignment i1({1, 2, 3});
  const IdAssignment i2({1, 2, 4});
  const Ball b1 = extract_ball(g, &i1, 1, 1);
  const Ball b2 = extract_ball(g, &i2, 1, 1);
  EXPECT_NE(b1.canonical_encoding(), b2.canonical_encoding());
  // ...but stripped balls agree.
  EXPECT_EQ(b1.view().without_ids().canonical_encoding(),
            b2.view().without_ids().canonical_encoding());
}

TEST(Simulator, AcceptsIffAllNodesYes) {
  LabeledGraph g = LabeledGraph::uniform(make_cycle(5), Label{});
  const auto all_yes = make_oblivious("yes", 0, [](const BallView&) {
    return Verdict::yes;
  });
  const auto res = run_oblivious(*all_yes, g);
  EXPECT_TRUE(res.accepted);
  EXPECT_FALSE(res.first_rejecting.has_value());

  const auto reject_somewhere = make_oblivious("no-at-deg2", 1, [](const BallView& b) {
    return b.g.degree(b.center) == 2 ? Verdict::no : Verdict::yes;
  });
  const auto res2 = run_oblivious(*reject_somewhere, g);
  EXPECT_FALSE(res2.accepted);
  ASSERT_TRUE(res2.first_rejecting.has_value());
  EXPECT_EQ(*res2.first_rejecting, 0);
}

TEST(Simulator, ObliviousAlgorithmNeverSeesIds) {
  LabeledGraph g = LabeledGraph::uniform(make_path(4), Label{});
  const IdAssignment ids({9, 8, 7, 6});
  bool saw_ids = false;
  const auto probe = make_oblivious("probe", 1, [&](const BallView& b) {
    saw_ids |= b.has_ids();
    return Verdict::yes;
  });
  run_local_algorithm(*probe, g, ids);
  EXPECT_FALSE(saw_ids);
}

TEST(Simulator, IdAwareAlgorithmSeesIds) {
  LabeledGraph g = LabeledGraph::uniform(make_path(4), Label{});
  const IdAssignment ids({9, 8, 7, 6});
  bool always_had_ids = true;
  const auto probe = make_id_aware("probe", 1, [&](const BallView& b) {
    always_had_ids &= b.has_ids();
    return Verdict::yes;
  });
  run_local_algorithm(*probe, g, ids);
  EXPECT_TRUE(always_had_ids);
  EXPECT_THROW(run_oblivious(*probe, g), Error);
}

TEST(Simulator, ProbeDetectsIdDependence) {
  LabeledGraph g = LabeledGraph::uniform(make_cycle(6), Label{});
  // Algorithm that rejects when its own id is the largest possible: clearly
  // id-dependent. With ids drawn as 6 distinct values from [0, 8), id 7 is
  // present in ~75% of assignments, so across 20 seeded trials both global
  // verdicts occur.
  const auto threshold = make_id_aware("big-id-rejects", 0, [](const BallView& b) {
    return b.center_id() >= 7 ? Verdict::no : Verdict::yes;
  });
  const auto probe =
      probe_id_dependence(*threshold, g, /*universe=*/8, 20, {{}, 5});
  EXPECT_TRUE(probe.some_node_output_changed);
  EXPECT_TRUE(probe.global_verdict_changed);

  // An id-reading but constant algorithm shows no dependence.
  const auto constant = make_id_aware("const", 0, [](const BallView&) {
    return Verdict::yes;
  });
  const auto probe2 =
      probe_id_dependence(*constant, g, /*universe=*/1'000'000, 10,
                          {{}, 6});
  EXPECT_FALSE(probe2.some_node_output_changed);
}

TEST(Property, EvaluateDeciderSplitsCompletenessAndSoundness) {
  // Property: all labels equal 1. Decider: correct local check.
  LambdaProperty prop("all-ones", [](const LabeledGraph& g) {
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      if (g.label(v).size() < 1 || g.label(v).at(0) != 1) return false;
    }
    return true;
  });
  const auto decider = make_oblivious("check-ones", 0, [](const BallView& b) {
    return (b.center_label().size() >= 1 && b.center_label().at(0) == 1)
               ? Verdict::yes
               : Verdict::no;
  });
  std::vector<LabeledGraph> instances;
  instances.push_back(LabeledGraph::uniform(make_cycle(4), Label{1}));
  instances.push_back(LabeledGraph::uniform(make_cycle(4), Label{2}));
  LabeledGraph mixed = LabeledGraph::uniform(make_path(3), Label{1});
  mixed.set_label(2, Label{0});
  instances.push_back(mixed);
  Rng rng(6);
  const auto report = evaluate_decider(*decider, prop, instances,
                                       consecutive_policy(), 1, rng);
  EXPECT_TRUE(report.all_correct());
  EXPECT_EQ(report.instances, 3);
  EXPECT_EQ(report.evaluations, 3);

  // A broken decider (always yes) fails exactly on the two no-instances.
  const auto broken = make_oblivious("always-yes", 0, [](const BallView&) {
    return Verdict::yes;
  });
  const auto report2 = evaluate_decider(*broken, prop, instances,
                                        consecutive_policy(), 1, rng);
  EXPECT_EQ(report2.failures.size(), 2u);
}

TEST(BallProfile, ContainmentOverCycleFamily) {
  // Every radius-1 ball of a long cycle occurs in a shorter cycle: the
  // classic indistinguishability example behind the Section-2 promise
  // problem.
  BallProfile profile(1);
  profile.add_graph(LabeledGraph::uniform(make_cycle(5), Label{1}));
  const LabeledGraph big = LabeledGraph::uniform(make_cycle(50), Label{1});
  const auto audit = audit_indistinguishability(big, profile);
  EXPECT_TRUE(audit.indistinguishable());
  EXPECT_EQ(audit.nodes_audited, 50u);
  EXPECT_EQ(audit.distinct_balls, 1u);
}

TEST(BallProfile, DetectsDistinguishableInstances) {
  // A path has endpoint balls that no cycle contains.
  BallProfile profile(1);
  profile.add_graph(LabeledGraph::uniform(make_cycle(5), Label{1}));
  const LabeledGraph path = LabeledGraph::uniform(make_path(5), Label{1});
  const auto audit = audit_indistinguishability(path, profile);
  EXPECT_FALSE(audit.indistinguishable());
  EXPECT_GE(audit.missing, 2u);  // both endpoints
  EXPECT_FALSE(audit.missing_witnesses.empty());
  // The profile holds full canonical encodings of stripped balls: an
  // interior path ball, extracted with identifiers and then stripped, is a
  // member; an endpoint ball is not.
  const IdAssignment ids({10, 11, 12, 13, 14});
  const Ball interior = extract_ball(path, &ids, 2, 1);
  EXPECT_TRUE(
      profile.contains(interior.view().without_ids().canonical_encoding()));
  EXPECT_FALSE(
      profile.contains(extract_ball(path, nullptr, 0, 1).canonical_encoding()));
}

// Grid vs torus: radius-1 balls of the torus interior match grid interiors,
// but the torus has no boundary balls; a grid is distinguishable from a
// torus, a torus is NOT distinguishable from grids at radius 1... unless the
// auditor is given only the torus. Both directions below.
TEST(BallProfile, TorusBallsAllInsideGridProfile) {
  BallProfile grid_profile(1);
  grid_profile.add_graph(
      LabeledGraph::uniform(make_grid(6, 6), Label{}));
  const LabeledGraph torus = LabeledGraph::uniform(graph::make_torus(6, 6),
                                                   Label{});
  EXPECT_TRUE(audit_indistinguishability(torus, grid_profile)
                  .indistinguishable());
}

TEST(BallProfile, GridBoundaryBallsMissingFromTorusProfile) {
  BallProfile torus_profile(1);
  torus_profile.add_graph(
      LabeledGraph::uniform(graph::make_torus(6, 6), Label{}));
  const LabeledGraph grid = LabeledGraph::uniform(make_grid(6, 6), Label{});
  const auto audit = audit_indistinguishability(grid, torus_profile);
  EXPECT_FALSE(audit.indistinguishable());
  EXPECT_EQ(audit.missing, 20u);  // the boundary ring of a 6x6 grid
}

class RadiusSweep : public ::testing::TestWithParam<int> {};

TEST_P(RadiusSweep, CycleBallSizes) {
  const int t = GetParam();
  LabeledGraph g = LabeledGraph::uniform(make_cycle(25), Label{});
  const Ball b = extract_ball(g, nullptr, 7, t);
  EXPECT_EQ(b.node_count(), std::min(2 * t + 1, 25));
  EXPECT_EQ(b.radius, t);
}

INSTANTIATE_TEST_SUITE_P(Radii, RadiusSweep, ::testing::Values(0, 1, 2, 3, 7, 12, 15));

}  // namespace
}  // namespace locald::local
