// Unit and property tests for the graph substrate: construction invariants,
// traversals, generator families, induced subgraphs, edge-list text.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/induced.h"
#include "graph/io.h"
#include "support/rng.h"

namespace locald::graph {
namespace {

TEST(FromEdges, DefaultGraphIsEmpty) {
  const CsrGraph g;
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(FromEdges, EdgesAreSymmetric) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 2}});
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(FromEdges, NeighborsSortedAscending) {
  const CsrGraph g = CsrGraph::from_edges(5, {{2, 4}, {2, 0}, {2, 3}});
  const std::vector<NodeId> expected{0, 3, 4};
  EXPECT_EQ(g.neighbors(2).to_vector(), expected);
}

TEST(FromEdges, RejectsSelfLoop) {
  EXPECT_THROW(CsrGraph::from_edges(2, {{1, 1}}), Error);
}

TEST(FromEdges, RejectsDuplicateEdge) {
  EXPECT_THROW(CsrGraph::from_edges(2, {{0, 1}, {0, 1}}), Error);
  EXPECT_THROW(CsrGraph::from_edges(2, {{0, 1}, {1, 0}}), Error);
}

TEST(FromEdges, RejectsOutOfRangeNode) {
  EXPECT_THROW(CsrGraph::from_edges(2, {{0, 2}}), Error);
  EXPECT_THROW(CsrGraph::from_edges(2, {{-1, 0}}), Error);
  EXPECT_THROW(CsrGraph::from_edges(2, {}).degree(-1), Error);
}

TEST(FromEdges, EdgesDeterministicOrder) {
  const CsrGraph g = CsrGraph::from_edges(4, {{3, 1}, {0, 2}, {0, 1}});
  const std::vector<std::pair<NodeId, NodeId>> expected{
      {0, 1}, {0, 2}, {1, 3}};
  EXPECT_EQ(g.edges(), expected);
}

TEST(Algorithms, BfsDistancesOnPath) {
  const CsrGraph g = make_path(5);
  const auto d = bfs_distances(g, 0);
  const std::vector<int> expected{0, 1, 2, 3, 4};
  EXPECT_EQ(d, expected);
}

TEST(Algorithms, BfsRespectsMaxDist) {
  const CsrGraph g = make_path(6);
  const auto d = bfs_distances(g, 0, 2);
  EXPECT_EQ(d[2], 2);
  EXPECT_EQ(d[3], kUnreached);
}

TEST(Algorithms, NodesWithinMatchesBfs) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const CsrGraph g = make_random_connected(
        40, 20, static_cast<std::uint64_t>(trial));
    const NodeId src = static_cast<NodeId>(rng.below(40));
    const int radius = static_cast<int>(rng.below(4));
    const auto ball = nodes_within(g, src, radius);
    const auto dist = bfs_distances(g, src, radius);
    std::set<NodeId> from_ball(ball.begin(), ball.end());
    std::set<NodeId> from_bfs;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (dist[v] != kUnreached && dist[v] <= radius) {
        from_bfs.insert(v);
      }
    }
    EXPECT_EQ(from_ball, from_bfs);
    EXPECT_EQ(ball.size(), from_ball.size()) << "no duplicates";
  }
}

TEST(Algorithms, Connectivity) {
  EXPECT_FALSE(is_connected(CsrGraph::from_edges(5, {{0, 1}, {2, 3}})));
}

TEST(Algorithms, BipartiteFamilies) {
  EXPECT_TRUE(is_bipartite(make_cycle(10)));
  EXPECT_FALSE(is_bipartite(make_cycle(9)));
  EXPECT_TRUE(is_bipartite(make_grid(4, 5)));
  EXPECT_TRUE(is_bipartite(make_path(6)));
  EXPECT_FALSE(is_bipartite(make_complete(3)));
  // The layered tree contains triangles (parent + adjacent siblings).
  EXPECT_FALSE(is_bipartite(make_layered_tree(2)));
}

TEST(Algorithms, TopologyRecognizers) {
  EXPECT_TRUE(is_cycle_graph(make_cycle(5)));
  EXPECT_FALSE(is_cycle_graph(make_path(5)));
  EXPECT_TRUE(is_tree(make_random_tree(20, 3)));
  EXPECT_FALSE(is_tree(make_cycle(4)));
}

TEST(Generators, PathCycleSizes) {
  EXPECT_EQ(make_path(1).node_count(), 1);
  EXPECT_EQ(make_path(4).edge_count(), 3u);
  EXPECT_EQ(make_cycle(7).edge_count(), 7u);
  EXPECT_THROW(make_cycle(2), Error);
}

TEST(Generators, GridStructure) {
  const CsrGraph g = make_grid(3, 4);
  EXPECT_EQ(g.node_count(), 12);
  EXPECT_EQ(g.edge_count(), 2u * 4 + 3u * 3);  // vertical 3*3, horizontal 2*4
  EXPECT_EQ(g.degree(0), 2);                   // corner
  EXPECT_EQ(g.degree(4), 4);                   // interior (1,1)
}

TEST(Generators, TorusIsFourRegular) {
  const CsrGraph g = make_torus(4, 5);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(g.degree(v), 4);
  }
  EXPECT_THROW(make_torus(2, 5), Error);
}

TEST(Generators, BinaryBalancedTreeShape) {
  const CsrGraph g = make_balanced_tree(2, 3);
  EXPECT_EQ(g.node_count(), 15);
  EXPECT_TRUE(is_tree(g));
  EXPECT_EQ(g.degree(0), 2);
}

TEST(Generators, LayeredTreeShape) {
  // Depth 2: 7 nodes, 6 tree edges + 1 (level 1) + 3 (level 2) path edges.
  const CsrGraph g = make_layered_tree(2);
  EXPECT_EQ(g.node_count(), 7);
  EXPECT_EQ(g.edge_count(), 10u);
  EXPECT_TRUE(is_connected(g));
  // Level paths: node 1 and 2 adjacent, 3-4-5-6 chained.
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_TRUE(g.has_edge(4, 5));
  EXPECT_TRUE(g.has_edge(5, 6));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Generators, HypercubeRegularity) {
  const CsrGraph g = make_hypercube(4);
  EXPECT_EQ(g.node_count(), 16);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(g.degree(v), 4);
  }
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Generators, RandomTreeIsTree) {
  for (NodeId n : {1, 2, 10, 100}) {
    EXPECT_TRUE(is_tree(make_random_tree(n, 77 + static_cast<std::uint64_t>(n))));
  }
}

TEST(Generators, RandomConnectedStaysConnected) {
  for (int trial = 0; trial < 10; ++trial) {
    const CsrGraph g = make_random_connected(
        30, 15, 78 + static_cast<std::uint64_t>(trial));
    EXPECT_TRUE(is_connected(g));
    EXPECT_GE(g.edge_count(), 29u);
  }
}

TEST(Generators, GnpEdgeCountConcentrates) {
  const CsrGraph g = make_random_gnp(60, 0.3, 79);
  const double expected = 0.3 * 60 * 59 / 2;
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected, expected * 0.35);
}

TEST(Generators, TreeIndexRoundTrip) {
  for (NodeId v = 0; v < 200; ++v) {
    const int y = TreeIndex::level(v);
    const std::int64_t x = TreeIndex::offset(v);
    EXPECT_EQ(TreeIndex::id(y, x), v);
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 1LL << y);
  }
  EXPECT_EQ(TreeIndex::level(0), 0);
  EXPECT_EQ(TreeIndex::level(1), 1);
  EXPECT_EQ(TreeIndex::level(2), 1);
  EXPECT_EQ(TreeIndex::level(3), 2);
}

TEST(Induced, SubgraphKeepsInternalEdgesOnly) {
  const CsrGraph g = make_cycle(6);
  const auto sub = induced_subgraph(g, {0, 1, 2, 4});
  EXPECT_EQ(sub.graph.node_count(), 4);
  EXPECT_TRUE(sub.graph.has_edge(0, 1));  // cycle edge 0-1
  EXPECT_TRUE(sub.graph.has_edge(1, 2));  // cycle edge 1-2
  EXPECT_FALSE(sub.graph.has_edge(2, 3)); // host 2 and 4 not adjacent
  EXPECT_EQ(sub.graph.edge_count(), 2u);
  EXPECT_EQ(sub.to_parent[3], 4);
  EXPECT_EQ(sub.from_parent.at(4), 3);
}

TEST(Induced, RejectsDuplicates) {
  const CsrGraph g = make_path(3);
  EXPECT_THROW(induced_subgraph(g, {0, 0}), Error);
}

TEST(Io, EdgeListIsSortedPairs) {
  const CsrGraph g = CsrGraph::from_edges(4, {{3, 1}, {0, 2}, {1, 0}});
  EXPECT_EQ(to_edge_list(g), "0 1\n0 2\n1 3\n");
  EXPECT_EQ(to_edge_list(CsrGraph::from_edges(2, {})), "");
}

// Parameterized sweep: generator families keep their defining invariants
// across sizes.
class CycleSweep : public ::testing::TestWithParam<NodeId> {};

TEST_P(CycleSweep, CycleInvariants) {
  const NodeId n = GetParam();
  const CsrGraph g = make_cycle(n);
  EXPECT_EQ(g.node_count(), n);
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n));
  EXPECT_TRUE(is_cycle_graph(g));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CycleSweep,
                         ::testing::Values(3, 4, 5, 8, 13, 21, 34, 100));

class LayeredTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(LayeredTreeSweep, NodeAndEdgeCounts) {
  const int depth = GetParam();
  const CsrGraph g = make_layered_tree(depth);
  const NodeId n = static_cast<NodeId>((1LL << (depth + 1)) - 1);
  EXPECT_EQ(g.node_count(), n);
  // Tree edges: n - 1. Level-path edges at level y: 2^y - 1 for y=1..depth.
  std::size_t path_edges = 0;
  for (int y = 1; y <= depth; ++y) {
    path_edges += (1ULL << y) - 1;
  }
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n - 1) + path_edges);
  EXPECT_TRUE(is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(Depths, LayeredTreeSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 12));

// The edge-list construction make_layered_tree used before its CSR came
// from layered_tree_neighbors: heap tree edges, then each level's path.
CsrGraph reference_layered_tree(int depth) {
  const NodeId n = static_cast<NodeId>((1LL << (depth + 1)) - 1);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; 2 * v + 2 < n; ++v) {
    edges.emplace_back(v, 2 * v + 1);
    edges.emplace_back(v, 2 * v + 2);
  }
  for (int y = 1; y <= depth; ++y) {
    const NodeId first = static_cast<NodeId>((1LL << y) - 1);
    const NodeId last = static_cast<NodeId>((1LL << (y + 1)) - 2);
    for (NodeId v = first; v < last; ++v) {
      edges.emplace_back(v, v + 1);
    }
  }
  return CsrGraph::from_edges(n, edges);
}

TEST(LayeredTree, NeighborsMatchTheEdgeListConstruction) {
  for (int depth = 0; depth <= 14; ++depth) {
    const CsrGraph want = reference_layered_tree(depth);
    ASSERT_EQ(make_layered_tree(depth), want) << "depth " << depth;
    for (NodeId v = 0; v < want.node_count(); ++v) {
      ASSERT_EQ(layered_tree_neighbors(depth, v), want.neighbors(v).to_vector())
          << "depth " << depth << " node " << v;
    }
  }
  EXPECT_THROW(layered_tree_neighbors(2, 7), Error);  // level 3 > depth 2
}

}  // namespace
}  // namespace locald::graph
