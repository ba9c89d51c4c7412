// Golden graph pins: every graph construction in locald, pinned by its node
// count and the FNV-1a of its canonical edge list (`to_edge_list`).
//
// The byte gates elsewhere compare runs within one build (serial against
// parallel, CLI against HTTP); these pins compare builds across commits, so
// a change to how a graph is assembled — the family generators, the
// rejection-sampled random-regular pairings, the Section-3 G(M, r)
// table-and-fragment graphs with and without their Appendix-A pyramids, the
// Section-2 patch instances, the fault profile's edge mutation and the
// message-passing ball reconstruction — must reproduce the same graphs.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "gen/family.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "halting/gmr.h"
#include "local/fault_profile.h"
#include "local/sync_engine.h"
#include "support/hash.h"
#include "tm/zoo.h"
#include "trees/construction.h"

namespace locald {
namespace {

struct Pin {
  std::string name;
  graph::NodeId nodes = 0;
  std::uint64_t edge_list_hash = 0;

  bool operator==(const Pin&) const = default;
};

void PrintTo(const Pin& p, std::ostream* os) {
  *os << "{\"" << p.name << "\", " << p.nodes << ", 0x" << std::hex
      << p.edge_list_hash << std::dec << "ULL}";
}

Pin pin(std::string name, const graph::CsrGraph& g) {
  return Pin{std::move(name), g.node_count(),
             hash_string(graph::to_edge_list(g))};
}

void expect_pins(const std::vector<Pin>& actual,
                 const std::vector<Pin>& golden) {
  ASSERT_EQ(actual.size(), golden.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]);
  }
}

TEST(GraphPins, RegisteredFamilies) {
  std::vector<Pin> actual;
  for (const gen::Family& family : gen::family_registry()) {
    for (const std::int64_t size : {40, 300}) {
      const gen::FamilyInstanceSpec spec =
          gen::resolve_family_text(family.name, size);
      actual.push_back(pin(spec.canonical(), spec.build(7)));
    }
  }
  const std::vector<Pin> golden = {
      {"path:n=40", 40, 0xa13c4eb459a0f71bULL},
      {"path:n=300", 300, 0xedb710375ae1f76dULL},
      {"cycle:n=40", 40, 0xe5b4595029b429edULL},
      {"cycle:n=300", 300, 0x704eef1096de76e3ULL},
      {"grid:width=6,height=6", 36, 0x162287c76d576e2dULL},
      {"grid:width=17,height=17", 289, 0xa27b65b35b13a385ULL},
      {"torus:width=6,height=6", 36, 0xd83e5b6c3b3a0517ULL},
      {"torus:width=17,height=17", 289, 0x479cf9d4decbd157ULL},
      {"hypercube:dims=5", 32, 0x6e3b379023b5e9f9ULL},
      {"hypercube:dims=8", 256, 0xa16a3b8aac26161dULL},
      {"complete-bipartite:a=20,b=20", 40, 0x76d6ccbf8f77ee6dULL},
      {"complete-bipartite:a=150,b=150", 300, 0x86e2b46d479c06fULL},
      {"balanced-tree:arity=2,depth=4", 31, 0x445687950720adfULL},
      {"balanced-tree:arity=2,depth=7", 255, 0x29a137cffa6a20edULL},
      {"caterpillar:spine=10,legs=3", 40, 0xaddc22bc988539f6ULL},
      {"caterpillar:spine=75,legs=3", 300, 0xc2cb605a88f22e3eULL},
      {"layered-tree:depth=4", 31, 0x2033715ec406b9deULL},
      {"layered-tree:depth=7", 255, 0xdca3e9834335380fULL},
      {"pyramid:height=2", 21, 0x4bfe81ebf64ec4b8ULL},
      {"pyramid:height=3", 85, 0xde3cfdf7d8f713e3ULL},
      {"random-regular:n=40,d=3", 40, 0x155b239d99318d35ULL},
      {"random-regular:n=300,d=3", 300, 0x14c2f5ec4c246b69ULL},
      {"gnp:n=40,permille=150", 40, 0x55673f2ef295488aULL},
      {"gnp:n=300,permille=150", 300, 0x7e1485e47d32296bULL},
  };
  expect_pins(actual, golden);
}

TEST(GraphPins, RandomRegular) {
  std::vector<Pin> actual;
  for (const graph::NodeId d : {3, 4, 5}) {
    for (const graph::NodeId n : {64, 1000}) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        actual.push_back(
            pin("regular n=" + std::to_string(n) + " d=" + std::to_string(d) +
                    " seed=" + std::to_string(seed),
                graph::make_random_regular(n, d, seed)));
      }
    }
  }
  const std::vector<Pin> golden = {
      {"regular n=64 d=3 seed=1", 64, 0x947c1cf398ad4c8fULL},
      {"regular n=64 d=3 seed=2", 64, 0x49d6fb850e10ed13ULL},
      {"regular n=64 d=3 seed=3", 64, 0xee71fce8dc7778f5ULL},
      {"regular n=1000 d=3 seed=1", 1000, 0xbb15d31680b8deb1ULL},
      {"regular n=1000 d=3 seed=2", 1000, 0x3caac35255006cdbULL},
      {"regular n=1000 d=3 seed=3", 1000, 0x82b7a3d3539c86cdULL},
      {"regular n=64 d=4 seed=1", 64, 0xec44294d763935fbULL},
      {"regular n=64 d=4 seed=2", 64, 0x6b78753f6fecef9dULL},
      {"regular n=64 d=4 seed=3", 64, 0xb73a0bde50f7338bULL},
      {"regular n=1000 d=4 seed=1", 1000, 0x703399d35df21941ULL},
      {"regular n=1000 d=4 seed=2", 1000, 0xd4f36f69feba847ULL},
      {"regular n=1000 d=4 seed=3", 1000, 0xb9689562917ead39ULL},
      {"regular n=64 d=5 seed=1", 64, 0x9dcd790c6923de13ULL},
      {"regular n=64 d=5 seed=2", 64, 0x722f7d2a4d466175ULL},
      {"regular n=64 d=5 seed=3", 64, 0xbc4e707586bc66cdULL},
      {"regular n=1000 d=5 seed=1", 1000, 0xdf4fc184ee7863bbULL},
      {"regular n=1000 d=5 seed=2", 1000, 0x5d9f7e8c3245da93ULL},
      {"regular n=1000 d=5 seed=3", 1000, 0xbcf270eba3702175ULL},
  };
  expect_pins(actual, golden);
}

TEST(GraphPins, RandomConnected) {
  std::vector<Pin> actual;
  // The last case saturates K_6, so the max_edges bound ends the chords.
  for (const auto& [n, extra] : {std::pair{50, 30}, std::pair{200, 150},
                                 std::pair{6, 40}}) {
    for (const std::uint64_t seed : {1, 2}) {
      actual.push_back(
          pin("connected n=" + std::to_string(n) + " extra=" +
                  std::to_string(extra) + " seed=" + std::to_string(seed),
              graph::make_random_connected(n, extra, seed)));
    }
  }
  const std::vector<Pin> golden = {
      {"connected n=50 extra=30 seed=1", 50, 0x5e009accee17e548ULL},
      {"connected n=50 extra=30 seed=2", 50, 0x2e045ba0029314c1ULL},
      {"connected n=200 extra=150 seed=1", 200, 0xb987da32d136c116ULL},
      {"connected n=200 extra=150 seed=2", 200, 0xcf437a89030abdcdULL},
      {"connected n=6 extra=40 seed=1", 6, 0xeaf6d2b65cf2b30aULL},
      {"connected n=6 extra=40 seed=2", 6, 0xeaf6d2b65cf2b30aULL},
  };
  expect_pins(actual, golden);
}

TEST(GraphPins, GmrWithAndWithoutPyramids) {
  tm::FragmentPolicy policy;
  policy.max_fragments = 60;
  policy.seed = 7;
  std::vector<Pin> actual;
  for (const bool pyramidal : {false, true}) {
    halting::GmrParams params{tm::halt_after(2, 0), 1, pyramidal ? 4 : 3,
                              policy, pyramidal, 4096};
    actual.push_back(pin(pyramidal ? "gmr pyramidal" : "gmr flat",
                         halting::build_gmr(params).graph.graph()));
  }
  const std::vector<Pin> golden = {
      {"gmr flat", 592, 0x9ff8f889a2fe545aULL},
      {"gmr pyramidal", 1302, 0x4f6d0855484e70ceULL},
  };
  expect_pins(actual, golden);
}

TEST(GraphPins, PatchInstances) {
  std::vector<Pin> actual;
  for (const int r : {2, 3}) {
    trees::TreeParams p;
    p.r = r;
    p.f = local::IdBound::linear_plus(1);
    for (const auto& [x0, y0] : {std::pair{0, 0}, std::pair{1, 2}}) {
      actual.push_back(pin("patch r=" + std::to_string(r) + " (" +
                               std::to_string(x0) + ", " +
                               std::to_string(y0) + ")",
                           trees::build_patch_instance(
                               p, trees::subtree_patch(p, x0, y0))
                               .graph()));
    }
  }
  const std::vector<Pin> golden = {
      {"patch r=2 (0, 0)", 8, 0x38197ca71cfe49e4ULL},
      {"patch r=2 (1, 2)", 8, 0xea3e0cd8e6636faeULL},
      {"patch r=3 (0, 0)", 16, 0x249197b6b2c60742ULL},
      {"patch r=3 (1, 2)", 16, 0xbbbc39b4883b6caeULL},
  };
  expect_pins(actual, golden);
}

TEST(GraphPins, MutateAddEdge) {
  const local::LabeledGraph torus(graph::make_torus(5, 4));
  Rng rng(11);
  const local::LabeledGraph mutated = local::mutate_add_edge(torus, rng);
  expect_pins({pin("torus 5x4 + edge", mutated.graph())},
              {{"torus 5x4 + edge", 20, 0x47274a2d96c85e18ULL}});
}

// Knowledge of a 4x4 grid in which node 6 omits its edge to node 5, as
// under message loss: the ball around 5 must still contain {5, 6}, learned
// from node 5 alone, and every other edge once.
TEST(GraphPins, BallFromOneSidedKnowledge) {
  const graph::CsrGraph grid = graph::make_grid(4, 4);
  local::Knowledge k;
  for (graph::NodeId v = 0; v < grid.node_count(); ++v) {
    local::KnownNode node;
    node.id = static_cast<local::Id>(v);
    for (const graph::NodeId w : grid.neighbors(v)) {
      if (v != 6 || w != 5) {
        node.adj.push_back(static_cast<local::Id>(w));
      }
    }
    k.emplace(node.id, node);
  }
  expect_pins({pin("grid ball r=2", local::ball_from_knowledge(5, k, 2).g)},
              {{"grid ball r=2", 11, 0x6ab20d5081899d74ULL}});
}

}  // namespace
}  // namespace locald
