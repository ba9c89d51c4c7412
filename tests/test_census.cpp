// The bulk census's verification paths, driven through its internal entry
// point (graph/census_internal.h): forced hash collisions must fall back to
// exact keys, and hosts spanning many blocks whose witnesses overflow the
// per-block bound must still match the serial census and per-ball
// canonical forms.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "graph/ball_slice.h"
#include "graph/census_internal.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"

namespace locald::graph::census_detail {
namespace {

std::uint64_t constant_hash(const BallSlice&,
                            const std::vector<std::string>*) {
  return 7;
}

std::uint64_t parity_hash(const BallSlice& s,
                          const std::vector<std::string>*) {
  return static_cast<std::uint64_t>(s.local.n % 2);
}

void expect_same_census(const BallCensusResult& want,
                        const BallCensusResult& got) {
  EXPECT_EQ(want.class_of, got.class_of);
  EXPECT_EQ(want.class_representative, got.class_representative);
  EXPECT_EQ(want.class_encoding, got.class_encoding);
  EXPECT_EQ(want.distinct, got.distinct);
  EXPECT_EQ(want.raw_duplicates, got.raw_duplicates);
  EXPECT_EQ(want.unique_structures, got.unique_structures);
}

// Two disjoint kBlockNodes-cycles, labelled "a" and "b": every ball of a
// block equals its block witness, but the two blocks' balls differ.
CsrGraph two_block_cycles() {
  const auto b = static_cast<NodeId>(kBlockNodes);
  EdgeList edges;
  for (NodeId offset : {NodeId{0}, b}) {
    for (NodeId v = 0; v < b; ++v) {
      edges.emplace_back(offset + v, offset + (v + 1) % b);
    }
  }
  return CsrGraph::from_edges(2 * b, edges);
}

struct CollisionCase {
  const char* name;
  CsrGraph host;
  std::vector<std::string> payloads;
  SliceHash hash;
  bool stage1_mismatch;
};

std::vector<CollisionCase> collision_cases() {
  std::vector<CollisionCase> cases;
  // A grid's corner, border and interior balls all share block 0.
  const CsrGraph grid = make_grid(20, 20);
  const std::vector<std::string> blank(400);
  cases.push_back({"grid/constant", grid, blank, constant_hash, true});
  cases.push_back({"grid/parity", grid, blank, parity_hash, true});
  const CsrGraph cycles = two_block_cycles();
  std::vector<std::string> ab(kBlockNodes, std::string("a"));
  ab.resize(2 * kBlockNodes, std::string("b"));
  cases.push_back({"cycles/constant", cycles, ab, constant_hash, false});
  cases.push_back({"cycles/parity", cycles, ab, parity_hash, false});
  // Every ball of K_130 is the whole clique, too large to hold as a
  // witness, so each is checked after stage 1; node 0's label sets its
  // ball apart.
  const CsrGraph clique = make_complete(130);
  EXPECT_GT(2 * 130 + 1 + 2 * clique.edge_count(), kWitnessWords);
  std::vector<std::string> one_x(130);
  one_x[0] = "x";
  cases.push_back({"clique/constant", clique, one_x, constant_hash, false});
  return cases;
}

TEST(CensusCollision, ForcedCollisionsFallBackToTheExactCensus) {
  exec::ThreadPool four(4);
  for (const CollisionCase& c : collision_cases()) {
    const BallCensusResult want = canonical_census(c.host, c.payloads, 1);
    for (exec::ThreadPool* pool : {static_cast<exec::ThreadPool*>(nullptr),
                                   &four}) {
      SCOPED_TRACE(std::string(c.name) + (pool == nullptr ? " serial" : " x4"));
      CensusPaths paths;
      const BallCensusResult got = census_with_hash(
          c.host, c.payloads, 1, pool, 1 << 20, c.hash, &paths);
      EXPECT_EQ(paths.stage1_mismatch, c.stage1_mismatch);
      EXPECT_EQ(paths.deferred_mismatch, !c.stage1_mismatch);
      expect_same_census(want, got);
    }
  }
}

TEST(CensusCollision, TheRealHashNeedsNoFallback) {
  for (const CollisionCase& c : collision_cases()) {
    SCOPED_TRACE(c.name);
    CensusPaths paths;
    census_with_hash(c.host, c.payloads, 1, nullptr, 1 << 20, slice_hash,
                     &paths);
    EXPECT_FALSE(paths.stage1_mismatch);
    EXPECT_FALSE(paths.deferred_mismatch);
  }
}

// An empty payload vector is an unlabelled host: every field of the census
// equals the census with one empty string per node, on the real hash and
// under a forced collision, whose fallback keys then carry no payloads.
TEST(CensusUnlabelled, EmptyPayloadsMatchOneEmptyStringPerNode) {
  struct Host {
    const char* name;
    CsrGraph g;
    int radius;
    bool collides;  // the constant hash sends it to the fallback
  };
  const std::vector<Host> hosts = {
      {"grid", make_grid(20, 20), 1, true},
      {"cycles", two_block_cycles(), 1, false},
      {"clique", make_complete(130), 1, false},
      {"torus", make_torus(64, 64), 3, true},
  };
  for (const Host& h : hosts) {
    const std::vector<std::string> blank(
        static_cast<std::size_t>(h.g.node_count()));
    const BallCensusResult want = canonical_census(h.g, blank, h.radius);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(h.name) + " x" + std::to_string(threads));
      exec::ThreadPool pool(threads);
      expect_same_census(want, canonical_census(h.g, {}, h.radius, &pool));
      CensusPaths paths;
      expect_same_census(want,
                         census_with_hash(h.g, {}, h.radius, &pool, 1 << 20,
                                          constant_hash, &paths));
      EXPECT_EQ(paths.stage1_mismatch || paths.deferred_mismatch, h.collides);
    }
  }
  const CsrGraph grid = make_grid(20, 20);
  EXPECT_THROW(canonical_census(grid, std::vector<std::string>(399), 1),
               Error);
  EXPECT_THROW(canonical_census(grid, std::vector<std::string>(401), 1),
               Error);
}

// A 64x64 torus labelled v mod 2048: shifting by 32 rows is a labelled
// automorphism, so every ball has exactly one twin, two blocks on. Within
// a block every ball is distinct, and at radius 3 a block's balls need
// more witness words than the bound, so some are checked only after
// stage 1.
TEST(CensusBlocks, OverflowingWitnessesMatchSerialAndPerBallForms) {
  const CsrGraph torus = make_torus(64, 64);
  const int radius = 3;
  std::vector<std::string> labels;
  for (NodeId v = 0; v < torus.node_count(); ++v) {
    std::string label = "L";
    label += std::to_string(v % 2048);
    labels.push_back(std::move(label));
  }
  BallScratch scratch;
  {
    const BallSlice s = scratch.extract(torus, 0, radius);
    const std::size_t words = 2 * static_cast<std::size_t>(s.local.n) + 1 +
                              s.local.offsets[s.local.n];
    ASSERT_GT(words * kBlockNodes, kWitnessWords);
  }

  // Twins whose balls wrap the torus seam list their members in another
  // host-id order, so they are isomorphic without being byte-identical.
  // Every byte-identical twin lies two blocks after its representative.
  const BallCensusResult serial = canonical_census(torus, labels, radius);
  EXPECT_EQ(serial.distinct, 2048);
  EXPECT_GT(serial.raw_duplicates, 0u);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    exec::ThreadPool pool(threads);
    CensusPaths paths;
    const BallCensusResult pooled = census_with_hash(
        torus, labels, radius, &pool, 1 << 20, slice_hash, &paths);
    expect_same_census(serial, pooled);
    EXPECT_EQ(paths.deferred_checks, serial.raw_duplicates);
    EXPECT_FALSE(paths.stage1_mismatch);
    EXPECT_FALSE(paths.deferred_mismatch);
  }

  for (NodeId v = 0; v < torus.node_count(); v += 97) {
    const BallSlice s = scratch.extract(torus, v, radius);
    std::vector<std::string> marked;
    for (NodeId u = 0; u < s.local.n; ++u) {
      std::string p = u == s.center ? "C" : "N";
      p += labels[static_cast<std::size_t>(s.to_host[u])];
      marked.push_back(std::move(p));
    }
    EXPECT_EQ(canonical_form(s.local, marked).encoding, serial.encoding_of(v))
        << "node " << v;
  }
}

}  // namespace
}  // namespace locald::graph::census_detail
