// Tests for canonical forms: soundness (non-isomorphic graphs separate),
// completeness (random relabelings collide), label handling, and the
// families the paper's audits depend on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "support/rng.h"

namespace locald::graph {
namespace {

// Applies a random node permutation, returning the permuted graph and the
// payloads moved along with their nodes.
std::pair<CsrGraph, std::vector<std::string>> permuted(
    const CsrGraph& g, const std::vector<std::string>& payloads, Rng& rng) {
  const NodeId n = g.node_count();
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) perm[v] = v;
  rng.shuffle(perm);
  std::vector<std::pair<NodeId, NodeId>> permuted_edges;
  for (const auto& [u, v] : g.edges()) {
    permuted_edges.emplace_back(perm[u], perm[v]);
  }
  CsrGraph h = CsrGraph::from_edges(n, permuted_edges);
  std::vector<std::string> moved(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    moved[static_cast<std::size_t>(perm[v])] =
        payloads[static_cast<std::size_t>(v)];
  }
  return {std::move(h), std::move(moved)};
}

std::vector<std::string> blank_payloads(const CsrGraph& g) {
  return std::vector<std::string>(static_cast<std::size_t>(g.node_count()));
}

TEST(Canonical, EmptyAndSingleton) {
  const CsrGraph empty;
  EXPECT_EQ(canonical_form(empty).encoding, "n=0;");
  const CsrGraph one = CsrGraph::from_edges(1, {});
  const auto c = canonical_form(one);
  EXPECT_EQ(c.order.size(), 1u);
}

TEST(Canonical, PayloadCountValidated) {
  const CsrGraph g = CsrGraph::from_edges(2, {});
  EXPECT_THROW(canonical_form(g, std::vector<std::string>{"a"}), Error);
}

TEST(Canonical, InvariantUnderRandomRelabeling) {
  Rng rng(101);
  for (int trial = 0; trial < 25; ++trial) {
    const CsrGraph g = make_random_connected(
        12, 8, 1000 + static_cast<std::uint64_t>(trial));
    std::vector<std::string> payloads(12);
    for (auto& p : payloads) {
      p = std::string(1, static_cast<char>('a' + rng.below(3)));
    }
    const auto base = canonical_form(g, payloads);
    auto [h, moved] = permuted(g, payloads, rng);
    const auto other = canonical_form(h, moved);
    EXPECT_EQ(base.encoding, other.encoding) << "trial " << trial;
    EXPECT_EQ(base.fingerprint, other.fingerprint);
  }
}

TEST(Canonical, SeparatesNonIsomorphicSameDegreeSequence) {
  // C6 vs 2x C3 merged: both 2-regular on 6 nodes.
  const CsrGraph c6 = make_cycle(6);
  const CsrGraph two_triangles =
      CsrGraph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_FALSE(isomorphic(c6, two_triangles));
}

TEST(Canonical, SeparatesByLabels) {
  const CsrGraph g = make_path(3);
  const std::vector<std::string> a{"x", "y", "x"};
  const std::vector<std::string> b{"x", "x", "y"};
  EXPECT_FALSE(isomorphic(g, a, g, b));
  // But reversing the path maps a to itself.
  const std::vector<std::string> reversed{"x", "y", "x"};
  EXPECT_TRUE(isomorphic(g, a, g, reversed));
}

TEST(Canonical, LabelBytesNotConfusedByConcatenation) {
  // Payloads "ab"+"" vs "a"+"b" must not collide: length prefixes matter.
  const CsrGraph g = CsrGraph::from_edges(2, {{0, 1}});
  EXPECT_FALSE(isomorphic(g, {"ab", ""}, g, {"a", "b"}));
}

TEST(Canonical, HighlySymmetricFamiliesAgree) {
  // Complete graphs and hypercubes have huge automorphism groups; canonical
  // form must still terminate (within the leaf budget) and be stable.
  const CsrGraph k5a = make_complete(5);
  const CsrGraph k5b = make_complete(5);
  EXPECT_TRUE(isomorphic(k5a, k5b));
  Rng rng(7);
  const CsrGraph q3 = make_hypercube(3);
  auto [q3p, moved] = permuted(q3, blank_payloads(q3), rng);
  EXPECT_TRUE(isomorphic(q3, q3p));
}

TEST(Canonical, LeafBudgetEnforced) {
  // A complete graph no longer exhausts budgets (twin pruning collapses it
  // to one leaf); a torus genuinely branches — its orbits are discovered
  // from leaf automorphisms, so several leaves must be visited.
  const CsrGraph torus = make_torus(4, 4);
  EXPECT_THROW(canonical_form(torus, blank_payloads(torus), 2), Error);
  // The same search completes (and stays exact) under a realistic budget.
  CanonicalStats stats;
  const auto c = canonical_form(torus, blank_payloads(torus), 64, &stats);
  EXPECT_FALSE(c.encoding.empty());
  EXPECT_LE(stats.leaves, 64u);
}

TEST(Canonical, CycleLengthsSeparate) {
  for (NodeId n = 3; n <= 9; ++n) {
    for (NodeId m = n + 1; m <= 10; ++m) {
      EXPECT_FALSE(isomorphic(make_cycle(n), make_cycle(m)));
    }
  }
}

TEST(Canonical, OrderIsValidPermutation) {
  Rng rng(9);
  const CsrGraph g = make_random_connected(10, 5, 9);
  const auto c = canonical_form(g, blank_payloads(g));
  std::vector<bool> seen(10, false);
  for (NodeId v : c.order) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 10);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Canonical, TreeVsLayeredTreeDiffer) {
  EXPECT_FALSE(
      isomorphic(make_balanced_tree(2, 3), make_layered_tree(3)));
}

// The audit machinery depends on this: a grid and a torus of the same size
// are locally similar but globally different; canonical forms must separate
// them.
TEST(Canonical, GridVsTorus) {
  EXPECT_FALSE(isomorphic(make_grid(4, 4), make_torus(4, 4)));
}

struct IsoSweepParam {
  int n;
  int extra;
  std::uint64_t seed;
};

class RelabelSweep : public ::testing::TestWithParam<IsoSweepParam> {};

TEST_P(RelabelSweep, CanonicalFormIsCompleteInvariant) {
  const auto p = GetParam();
  Rng rng(p.seed);
  const CsrGraph g = make_random_connected(
      static_cast<NodeId>(p.n), static_cast<NodeId>(p.extra), p.seed);
  std::vector<std::string> payloads(static_cast<std::size_t>(p.n));
  for (auto& s : payloads) {
    s = std::to_string(rng.below(4));
  }
  const auto base = canonical_form(g, payloads);
  for (int rep = 0; rep < 5; ++rep) {
    auto [h, moved] = permuted(g, payloads, rng);
    EXPECT_EQ(canonical_form(h, moved).encoding, base.encoding);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, RelabelSweep,
    ::testing::Values(IsoSweepParam{6, 3, 1}, IsoSweepParam{9, 6, 2},
                      IsoSweepParam{12, 4, 3}, IsoSweepParam{15, 10, 4},
                      IsoSweepParam{20, 8, 5}, IsoSweepParam{24, 16, 6}));

}  // namespace
}  // namespace locald::graph
