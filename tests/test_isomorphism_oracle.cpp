// Adversarial oracle suite for the two-tier canonicalization engine.
//
// The brute-force oracle decides label-preserving isomorphism by
// backtracking over all vertex bijections — exponential and obviously
// correct. The suite asserts `canonical_form` equality ⇔ oracle
// isomorphism on exhaustive enumerations of small connected graphs (with
// and without label payloads) and on seeded random graphs with random
// payloads; pins the exact isomorphism-class counts of ALL connected
// graphs up to n = 7 (OEIS A001349: 2, 6, 21, 112, 853 — a single merged
// or split class changes the count); checks the bulk census agrees
// byte-for-byte with per-ball `canonical_form` on every registered family;
// and proves the orbit pruning works by completing adversarially symmetric
// inputs (hypercubes, K_{m,m}, stars — k! search leaves without pruning)
// under tight `max_leaves` budgets, including on permuted copies.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/thread_pool.h"
#include "gen/family.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/induced.h"
#include "graph/isomorphism.h"
#include "support/rng.h"

namespace locald::graph {
namespace {

// ---- the brute-force oracle ------------------------------------------------

bool oracle_extend(const CsrGraph& a, const std::vector<std::string>& pa,
                   const CsrGraph& b, const std::vector<std::string>& pb,
                   std::vector<NodeId>& mapping, std::vector<bool>& used,
                   NodeId v) {
  const NodeId n = a.node_count();
  if (v == n) {
    return true;
  }
  for (NodeId w = 0; w < n; ++w) {
    if (used[static_cast<std::size_t>(w)] ||
        pa[static_cast<std::size_t>(v)] != pb[static_cast<std::size_t>(w)] ||
        a.degree(v) != b.degree(w)) {
      continue;
    }
    bool consistent = true;
    for (NodeId u = 0; u < v && consistent; ++u) {
      consistent = a.has_edge(u, v) ==
                   b.has_edge(mapping[static_cast<std::size_t>(u)], w);
    }
    if (!consistent) {
      continue;
    }
    mapping[static_cast<std::size_t>(v)] = w;
    used[static_cast<std::size_t>(w)] = true;
    if (oracle_extend(a, pa, b, pb, mapping, used, v + 1)) {
      return true;
    }
    used[static_cast<std::size_t>(w)] = false;
  }
  return false;
}

// Tries every label-preserving bijection (with degree and prefix-edge
// pruning). Correct by construction; exponential by design.
bool oracle_isomorphic(const CsrGraph& a, const std::vector<std::string>& pa,
                       const CsrGraph& b, const std::vector<std::string>& pb) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) {
    return false;
  }
  std::vector<NodeId> mapping(static_cast<std::size_t>(a.node_count()));
  std::vector<bool> used(static_cast<std::size_t>(a.node_count()));
  return oracle_extend(a, pa, b, pb, mapping, used, 0);
}

std::vector<std::string> blank(const CsrGraph& g) {
  return std::vector<std::string>(static_cast<std::size_t>(g.node_count()));
}

// Enumerate every graph on n nodes via its edge-set bitmask.
CsrGraph graph_from_mask(int n, long long mask) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  int bit = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v, ++bit) {
      if ((mask >> bit) & 1) {
        edges.emplace_back(u, v);
      }
    }
  }
  return CsrGraph::from_edges(static_cast<NodeId>(n), edges);
}

std::pair<CsrGraph, std::vector<std::string>> permuted(
    const CsrGraph& g, const std::vector<std::string>& payloads, Rng& rng) {
  const NodeId n = g.node_count();
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  std::vector<std::pair<NodeId, NodeId>> permuted_edges;
  for (const auto& [u, v] : g.edges()) {
    permuted_edges.emplace_back(perm[static_cast<std::size_t>(u)],
                                perm[static_cast<std::size_t>(v)]);
  }
  CsrGraph h = CsrGraph::from_edges(n, permuted_edges);
  std::vector<std::string> moved(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    moved[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])] =
        payloads[static_cast<std::size_t>(v)];
  }
  return {std::move(h), std::move(moved)};
}

// ---- exhaustive: canonical equality ⇔ oracle isomorphism -------------------

// All connected graphs on n ≤ 5 nodes, blank payloads: within an encoding
// class every member is oracle-isomorphic to the representative, and
// across classes representatives are oracle-non-isomorphic. Together with
// transitivity this is full equivalence of the two relations.
TEST(Oracle, ExhaustiveConnectedUpTo5BothDirections) {
  for (int n = 2; n <= 5; ++n) {
    const int pairs = n * (n - 1) / 2;
    std::map<std::string, std::vector<long long>> classes;
    for (long long mask = 0; mask < (1LL << pairs); ++mask) {
      const CsrGraph g = graph_from_mask(n, mask);
      if (!is_connected(g)) {
        continue;
      }
      classes[canonical_form(g).encoding].push_back(mask);
    }
    std::vector<long long> reps;
    for (const auto& [enc, members] : classes) {
      const CsrGraph rep = graph_from_mask(n, members.front());
      for (const long long mask : members) {
        const CsrGraph g = graph_from_mask(n, mask);
        ASSERT_TRUE(oracle_isomorphic(rep, blank(rep), g, blank(g)))
            << "n=" << n << " merged non-isomorphic graphs";
      }
      reps.push_back(members.front());
    }
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (std::size_t j = i + 1; j < reps.size(); ++j) {
        const CsrGraph a = graph_from_mask(n, reps[i]);
        const CsrGraph b = graph_from_mask(n, reps[j]);
        ASSERT_FALSE(oracle_isomorphic(a, blank(a), b, blank(b)))
            << "n=" << n << " split one isomorphism class";
      }
    }
  }
}

// All connected graphs on n ≤ 4 nodes under EVERY payload assignment over
// a two-letter alphabet — the labelled half of the equivalence.
TEST(Oracle, ExhaustiveLabelledUpTo4BothDirections) {
  for (int n = 2; n <= 4; ++n) {
    const int pairs = n * (n - 1) / 2;
    struct Item {
      long long mask;
      std::vector<std::string> payloads;
    };
    std::map<std::string, std::vector<Item>> classes;
    for (long long mask = 0; mask < (1LL << pairs); ++mask) {
      const CsrGraph g = graph_from_mask(n, mask);
      if (!is_connected(g)) {
        continue;
      }
      for (int labels = 0; labels < (1 << n); ++labels) {
        std::vector<std::string> payloads(static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v) {
          // assign(count, char) rather than = "x": gcc-12's -Wrestrict
          // false-positives on the literal-assignment memcpy (PR105329).
          payloads[static_cast<std::size_t>(v)].assign(
              1, ((labels >> v) & 1) ? 'x' : 'y');
        }
        const std::string enc = canonical_form(g, payloads).encoding;
        classes[enc].push_back({mask, std::move(payloads)});
      }
    }
    std::vector<const Item*> reps;
    for (const auto& [enc, members] : classes) {
      const Item& rep = members.front();
      const CsrGraph rep_g = graph_from_mask(n, rep.mask);
      for (const Item& item : members) {
        const CsrGraph g = graph_from_mask(n, item.mask);
        ASSERT_TRUE(
            oracle_isomorphic(rep_g, rep.payloads, g, item.payloads))
            << "n=" << n << " merged non-isomorphic labelled graphs";
      }
      reps.push_back(&rep);
    }
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (std::size_t j = i + 1; j < reps.size(); ++j) {
        const CsrGraph a = graph_from_mask(n, reps[i]->mask);
        const CsrGraph b = graph_from_mask(n, reps[j]->mask);
        ASSERT_FALSE(
            oracle_isomorphic(a, reps[i]->payloads, b, reps[j]->payloads))
            << "n=" << n << " split one labelled class";
      }
    }
  }
}

// The complete census of connected graphs up to n = 7: the number of
// distinct encodings must equal the number of isomorphism classes of
// connected graphs (OEIS A001349). Any unsound merge or incomplete split
// anywhere in the 2^21-graph enumeration changes the count.
TEST(Oracle, ClassCountsMatchA001349UpTo7) {
  const std::map<int, std::size_t> expected{
      {3, 2}, {4, 6}, {5, 21}, {6, 112}, {7, 853}};
  for (const auto& [n, classes_expected] : expected) {
    const int pairs = n * (n - 1) / 2;
    std::unordered_set<std::string> classes;
    for (long long mask = 0; mask < (1LL << pairs); ++mask) {
      const CsrGraph g = graph_from_mask(n, mask);
      if (!is_connected(g)) {
        continue;
      }
      classes.insert(canonical_form(g).encoding);
    }
    EXPECT_EQ(classes.size(), classes_expected) << "n=" << n;
  }
}

// Seeded random graphs with random payloads: canonical equality must match
// the oracle on permuted copies (isomorphic by construction), on
// independent draws, and on single-edge perturbations.
TEST(Oracle, RandomGraphsWithRandomPayloadsMatchOracle) {
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId n = static_cast<NodeId>(5 + rng.below(3));  // oracle-sized
    const CsrGraph a = make_random_connected(
        n, static_cast<NodeId>(rng.below(5)),
        42420 + static_cast<std::uint64_t>(trial));
    std::vector<std::string> pa(static_cast<std::size_t>(n));
    for (auto& p : pa) {
      p = std::string(1, static_cast<char>('a' + rng.below(3)));
    }
    // Permuted copy: oracle says isomorphic; encodings must collide.
    auto [b, pb] = permuted(a, pa, rng);
    ASSERT_TRUE(oracle_isomorphic(a, pa, b, pb));
    EXPECT_EQ(canonical_form(a, pa).encoding, canonical_form(b, pb).encoding);
    // Independent draw: equality iff the oracle agrees.
    const CsrGraph c = make_random_connected(
        n, static_cast<NodeId>(rng.below(5)),
        42920 + static_cast<std::uint64_t>(trial));
    std::vector<std::string> pc(static_cast<std::size_t>(n));
    for (auto& p : pc) {
      p = std::string(1, static_cast<char>('a' + rng.below(3)));
    }
    EXPECT_EQ(canonical_form(a, pa).encoding == canonical_form(c, pc).encoding,
              oracle_isomorphic(a, pa, c, pc))
        << "trial " << trial;
  }
}

// Same-degree-sequence adversaries: random d-regular pairs are the classic
// trap for incomplete invariants (degree profiles cannot separate them).
TEST(Oracle, RandomRegularPairsMatchOracle) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const CsrGraph a = make_random_regular(8, 3, seed);
    const CsrGraph b = make_random_regular(8, 3, seed + 100);
    EXPECT_EQ(canonical_form(a).encoding == canonical_form(b).encoding,
              oracle_isomorphic(a, blank(a), b, blank(b)))
        << "seed " << seed;
  }
}

// ---- metamorphic properties ------------------------------------------------

TEST(Metamorphic, NodePermutationsNeverChangeTheEncoding) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = static_cast<NodeId>(8 + rng.below(10));
    const CsrGraph g = make_random_connected(
        n, static_cast<NodeId>(rng.below(8)),
        7700 + static_cast<std::uint64_t>(trial));
    std::vector<std::string> payloads(static_cast<std::size_t>(n));
    for (auto& p : payloads) {
      p = std::to_string(rng.below(4));
    }
    const auto base = canonical_form(g, payloads);
    for (int rep = 0; rep < 3; ++rep) {
      auto [h, moved] = permuted(g, payloads, rng);
      EXPECT_EQ(canonical_form(h, moved).encoding, base.encoding);
    }
  }
}

// Re-encoding the label alphabet through any injective map preserves the
// equality relation between encodings (the bytes change, the classes
// cannot: payloads are compared only for equality).
TEST(Metamorphic, InjectiveLabelReencodingsPreserveTheClasses) {
  Rng rng(88);
  const auto reencode = [](const std::vector<std::string>& payloads) {
    std::vector<std::string> out;
    out.reserve(payloads.size());
    for (const std::string& p : payloads) {
      out.push_back("tag<" + p + ">");  // injective on any input set
    }
    return out;
  };
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = static_cast<NodeId>(6 + rng.below(6));
    const CsrGraph g = make_random_connected(
        n, static_cast<NodeId>(rng.below(6)),
        8800 + static_cast<std::uint64_t>(trial));
    std::vector<std::string> pa(static_cast<std::size_t>(n));
    for (auto& p : pa) {
      p = std::string(1, static_cast<char>('a' + rng.below(2)));
    }
    auto [h, pb] = permuted(g, pa, rng);
    std::vector<std::string> pb_mutated = pb;
    pb_mutated[static_cast<std::size_t>(rng.below(
        static_cast<std::uint64_t>(n)))] += "!";
    // Equal stays equal, unequal stays unequal, after re-encoding both.
    EXPECT_EQ(canonical_form(g, reencode(pa)).encoding,
              canonical_form(h, reencode(pb)).encoding);
    EXPECT_EQ(canonical_form(g, pa).encoding ==
                  canonical_form(h, pb_mutated).encoding,
              canonical_form(g, reencode(pa)).encoding ==
                  canonical_form(h, reencode(pb_mutated)).encoding);
  }
}

TEST(Metamorphic, SingleEdgePerturbationsAlwaysChangeTheEncoding) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = static_cast<NodeId>(6 + rng.below(6));
    const CsrGraph g = make_random_connected(
        n, static_cast<NodeId>(1 + rng.below(6)),
        9900 + static_cast<std::uint64_t>(trial));
    const auto base = canonical_form(g);
    // Remove one random edge (different edge count ⇒ provably different
    // class; the encoding must notice).
    const auto edges = g.edges();
    const auto& [ru, rv] =
        edges[static_cast<std::size_t>(rng.below(edges.size()))];
    std::vector<std::pair<NodeId, NodeId>> kept;
    for (const auto& [u, v] : edges) {
      if (u != ru || v != rv) {
        kept.emplace_back(u, v);
      }
    }
    const CsrGraph removed = CsrGraph::from_edges(n, kept);
    EXPECT_NE(canonical_form(removed).encoding, base.encoding);
    // Add one random absent edge.
    for (int attempts = 0; attempts < 64; ++attempts) {
      const NodeId u =
          static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      const NodeId v =
          static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      if (u == v || g.has_edge(u, v)) {
        continue;
      }
      std::vector<std::pair<NodeId, NodeId>> extended = edges;
      extended.emplace_back(u, v);
      const CsrGraph added = CsrGraph::from_edges(n, extended);
      EXPECT_NE(canonical_form(added).encoding, base.encoding);
      break;
    }
  }
}

TEST(Metamorphic, SingleLabelPerturbationsAlwaysChangeTheEncoding) {
  Rng rng(111);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = static_cast<NodeId>(6 + rng.below(6));
    const CsrGraph g = make_random_connected(
        n, static_cast<NodeId>(rng.below(6)),
        11100 + static_cast<std::uint64_t>(trial));
    std::vector<std::string> payloads(static_cast<std::size_t>(n), "same");
    const auto base = canonical_form(g, payloads);
    std::vector<std::string> mutated = payloads;
    mutated[static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(n)))] = "other";
    // A payload multiset change is a class change; the encoding must see it.
    EXPECT_NE(canonical_form(g, mutated).encoding, base.encoding);
  }
}

// Certificates are sound: encoding-equal graphs always share their tier-1
// certificate (the converse direction is exactly what tier 2 exists for).
TEST(Metamorphic, CertificateIsImpliedByCanonicalEquality) {
  Rng rng(123);
  for (int trial = 0; trial < 15; ++trial) {
    const NodeId n = static_cast<NodeId>(6 + rng.below(8));
    const CsrGraph g = make_random_connected(
        n, static_cast<NodeId>(rng.below(6)),
        12300 + static_cast<std::uint64_t>(trial));
    auto [h, moved] = permuted(g, blank(g), rng);
    ASSERT_EQ(canonical_form(g).encoding, canonical_form(h).encoding);
    EXPECT_EQ(wl_certificate(g, blank(g)), wl_certificate(h, moved));
  }
  // Certificate inequality separates graphs refinement can tell apart —
  // P6 vs C3 + P3 share the degree profile {1,1,2,2,2,2} but refine apart.
  // (Regular same-degree pairs like C6 vs 2xC3 are exactly the 1-WL blind
  // spot; those share a certificate and are split by tier 2 only.)
  const CsrGraph p6 = make_path(6);
  const CsrGraph triangle_plus_path =
      CsrGraph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}});
  EXPECT_NE(wl_certificate(p6, blank(p6)),
            wl_certificate(triangle_plus_path, blank(triangle_plus_path)));
  const CsrGraph c6 = make_cycle(6);
  const CsrGraph two_triangles =
      CsrGraph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  // The blind spot, pinned: equal certificates, distinct canonical forms.
  EXPECT_EQ(wl_certificate(c6, blank(c6)),
            wl_certificate(two_triangles, blank(two_triangles)));
  EXPECT_NE(canonical_form(c6).encoding,
            canonical_form(two_triangles).encoding);
}

// ---- adversarially symmetric inputs under tight budgets --------------------

// A naive individualization–refinement search visits k! discrete orderings
// on a star with k interchangeable leaves and worse on hypercubes and
// K_{m,m}. The budgets below are orders of magnitude under those
// factorials — completing within them (also on permuted copies, which
// must not depend on a friendly input numbering) is the proof the orbit
// pruning works.
TEST(OrbitPruning, HypercubesCompleteUnderTightBudgets) {
  Rng rng(7);
  for (int dims = 3; dims <= 6; ++dims) {
    const CsrGraph q = make_hypercube(dims);
    CanonicalStats stats;
    const auto base = canonical_form(q, blank(q), /*max_leaves=*/64, &stats);
    // |Aut(Q_d)| = 2^d d! (46080 at d = 6); the orbit-pruned search stays
    // within a handful of leaves.
    EXPECT_LE(stats.leaves, 16u) << "Q" << dims;
    auto [p, moved] = permuted(q, blank(q), rng);
    EXPECT_EQ(canonical_form(p, moved, /*max_leaves=*/64).encoding,
              base.encoding)
        << "Q" << dims;
  }
}

TEST(OrbitPruning, CompleteBipartiteCompletesUnderTightBudgets) {
  Rng rng(8);
  for (NodeId m = 2; m <= 8; ++m) {
    const CsrGraph k = make_complete_bipartite(m, m);
    CanonicalStats stats;
    const auto base = canonical_form(k, blank(k), /*max_leaves=*/16, &stats);
    EXPECT_LE(stats.leaves, 8u) << "K_{" << m << "," << m << "}";
    auto [p, moved] = permuted(k, blank(k), rng);
    EXPECT_EQ(canonical_form(p, moved, /*max_leaves=*/16).encoding,
              base.encoding);
  }
}

TEST(OrbitPruning, StarBallsCompleteUnderTightBudgets) {
  // The exact shape that forced PR 4's degree-profile fallback: k
  // interchangeable degree-1 leaves around one centre (the radius-1 ball
  // at a hypercube or complete-bipartite node). k! at k = 64 is 1e89; the
  // twin-pruned search visits ONE leaf.
  Rng rng(9);
  for (const NodeId k : {7, 16, 64, 200}) {
    const CsrGraph star = make_complete_bipartite(1, k);
    CanonicalStats stats;
    const auto base =
        canonical_form(star, blank(star), /*max_leaves=*/4, &stats);
    EXPECT_EQ(stats.leaves, 1u) << "star " << k;
    auto [p, moved] = permuted(star, blank(star), rng);
    EXPECT_EQ(canonical_form(p, moved, /*max_leaves=*/4).encoding,
              base.encoding);
  }
  // Centre-marked star balls (the census shape) behave identically.
  const CsrGraph star = make_complete_bipartite(1, 32);
  std::vector<std::string> payloads(33, "N");
  payloads[0] = "C";
  CanonicalStats stats;
  canonical_form(star, payloads, /*max_leaves=*/4, &stats);
  EXPECT_EQ(stats.leaves, 1u);
}

// ---- the bulk census vs per-ball canonical_form ----------------------------

// On every registered family: census encodings must agree byte-for-byte
// with extracting each ball and canonicalizing it alone (the census's
// dedup and parallel fan-out must be pure plumbing), at several radii and
// thread counts.
TEST(Census, AgreesWithPerBallCanonicalFormOnEveryFamily) {
  exec::ThreadPool pool(4);
  for (const gen::Family& family : gen::family_registry()) {
    const gen::FamilyInstanceSpec spec =
        gen::resolve_family_text(family.name, 24);
    const CsrGraph g = spec.build(11);
    const std::vector<std::string> payloads(
        static_cast<std::size_t>(g.node_count()));
    for (const int radius : {1, 2}) {
      const BallCensusResult serial =
          canonical_census(g, payloads, radius, nullptr);
      const BallCensusResult pooled =
          canonical_census(g, payloads, radius, &pool);
      ASSERT_EQ(serial.class_of, pooled.class_of)
          << spec.canonical() << " r=" << radius;
      ASSERT_EQ(serial.class_encoding, pooled.class_encoding)
          << spec.canonical() << " r=" << radius;
      EXPECT_EQ(serial.distinct, pooled.distinct);
      std::unordered_set<std::string> distinct;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        const std::vector<NodeId> members = nodes_within(g, v, radius);
        InducedSubgraph sub = induced_subgraph(g, members);
        std::vector<std::string> ball_payloads;
        for (std::size_t i = 0; i < sub.to_parent.size(); ++i) {
          ball_payloads.push_back(
              static_cast<NodeId>(i) == sub.from_parent.at(v) ? "C" : "N");
        }
        const std::string direct =
            canonical_form(sub.graph, ball_payloads).encoding;
        ASSERT_EQ(serial.encoding_of(v), direct)
            << spec.canonical() << " node " << v << " r=" << radius;
        distinct.insert(direct);
      }
      EXPECT_EQ(static_cast<std::size_t>(serial.distinct), distinct.size())
          << spec.canonical() << " r=" << radius;
      // The class partition the census hands consumers is consistent with
      // its encodings: members share their representative's encoding.
      ASSERT_EQ(serial.class_of.size(),
                static_cast<std::size_t>(g.node_count()));
      ASSERT_EQ(serial.class_representative.size(),
                static_cast<std::size_t>(serial.distinct));
      for (NodeId v = 0; v < g.node_count(); ++v) {
        const std::size_t c = serial.class_of[static_cast<std::size_t>(v)];
        ASSERT_LT(c, serial.class_representative.size());
        EXPECT_EQ(serial.encoding_of(v),
                  serial.encoding_of(serial.class_representative[c]));
      }
    }
  }
}

// Tier-1 certificates are isomorphism-invariant, so equal canonical forms
// imply equal certificates and the certificate partition can only be
// coarser than (or equal to) the class partition.
TEST(Census, CertificateBucketsAreCoarserThanClasses) {
  for (const char* selector : {"hypercube:dims=4", "gnp:n=32,permille=200"}) {
    const gen::FamilyInstanceSpec spec = gen::resolve_family_text(selector);
    const CsrGraph g = spec.build(5);
    std::unordered_map<std::string, std::string> cert_of_encoding;
    std::unordered_set<std::string> certificates;
    std::unordered_set<std::string> encodings;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const std::vector<NodeId> members = nodes_within(g, v, 1);
      InducedSubgraph sub = induced_subgraph(g, members);
      std::vector<std::string> payloads;
      for (std::size_t i = 0; i < sub.to_parent.size(); ++i) {
        payloads.push_back(
            static_cast<NodeId>(i) == sub.from_parent.at(v) ? "C" : "N");
      }
      const std::string enc = canonical_form(sub.graph, payloads).encoding;
      const std::string cert = wl_certificate(sub.graph, payloads);
      const auto [it, inserted] = cert_of_encoding.emplace(enc, cert);
      EXPECT_EQ(it->second, cert) << selector;  // same class => same bucket
      certificates.insert(cert);
      encodings.insert(enc);
    }
    EXPECT_LE(certificates.size(), encodings.size()) << selector;
  }
}

// The census's exactness on the two families PR 4's fallback kept inexact,
// verified against the oracle: every pair of balls in one census class is
// oracle-isomorphic, every cross-class representative pair is not.
TEST(Census, HypercubeAndCompleteBipartiteClassesAreOracleExact) {
  for (const char* selector : {"hypercube:dims=4", "complete-bipartite"}) {
    const gen::FamilyInstanceSpec spec = gen::resolve_family_text(selector);
    const CsrGraph g = spec.build(3);
    const std::vector<std::string> payloads(
        static_cast<std::size_t>(g.node_count()));
    const BallCensusResult census = canonical_census(g, payloads, 1, nullptr);
    struct BallData {
      CsrGraph g;
      std::vector<std::string> payloads;
    };
    std::map<std::string, std::vector<BallData>> classes;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const std::vector<NodeId> members = nodes_within(g, v, 1);
      InducedSubgraph sub = induced_subgraph(g, members);
      std::vector<std::string> ball_payloads;
      for (std::size_t i = 0; i < sub.to_parent.size(); ++i) {
        ball_payloads.push_back(
            static_cast<NodeId>(i) == sub.from_parent.at(v) ? "C" : "N");
      }
      classes[census.encoding_of(v)].push_back(
          {std::move(sub.graph), std::move(ball_payloads)});
    }
    ASSERT_EQ(static_cast<std::int64_t>(classes.size()), census.distinct);
    std::vector<const BallData*> reps;
    for (const auto& [enc, members] : classes) {
      for (const BallData& ball : members) {
        ASSERT_TRUE(oracle_isomorphic(members.front().g,
                                      members.front().payloads, ball.g,
                                      ball.payloads))
            << selector;
      }
      reps.push_back(&members.front());
    }
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (std::size_t j = i + 1; j < reps.size(); ++j) {
        ASSERT_FALSE(oracle_isomorphic(reps[i]->g, reps[i]->payloads,
                                       reps[j]->g, reps[j]->payloads))
            << selector;
      }
    }
  }
}

// Raw-structure dedup bookkeeping: on a vertex-transitive host every
// extracted ball is byte-identical, so exactly one structure is
// canonicalized no matter how many nodes the host has.
TEST(Census, RawDedupCollapsesTransitiveHosts) {
  const CsrGraph cycle = make_cycle(48);
  const BallCensusResult census =
      canonical_census(cycle, blank(cycle), 1, nullptr);
  EXPECT_EQ(census.unique_structures, 1u);
  EXPECT_EQ(census.raw_duplicates, 47u);
  EXPECT_EQ(census.distinct, 1);
  const CsrGraph q6 = make_hypercube(6);
  const BallCensusResult hyper = canonical_census(q6, blank(q6), 1, nullptr);
  EXPECT_EQ(hyper.unique_structures, 1u);
  EXPECT_EQ(hyper.distinct, 1);
}

}  // namespace
}  // namespace locald::graph
