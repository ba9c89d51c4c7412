// Golden equivalence suite for the CSR graph core (graph/csr.h).
//
// Every graph is an immutable offsets/adj pair reachable by two
// construction routes: CsrGraph::from_edges and deep-copying a CsrSpan.
// This suite pins the routes to each other and to independent reference
// implementations — sorted adjacency rows built here from the edge list,
// neighbour iteration order, BFS ball membership, zero-copy slice
// extraction — and locks the bulk
// canonical census to byte-identical output across every registered
// family, a grid of sizes, and serial / 2-thread / 4-thread pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "gen/family.h"
#include "graph/algorithms.h"
#include "graph/ball_slice.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/induced.h"
#include "graph/isomorphism.h"
#include "halting/gmr.h"
#include "support/check.h"
#include "tm/zoo.h"

namespace locald::graph {
namespace {

// A mixed bag of topologies covering degenerate, regular, and irregular
// adjacency shapes; every structural test below sweeps all of them.
std::vector<CsrGraph> sample_graphs() {
  std::vector<CsrGraph> graphs;
  graphs.emplace_back();                          // empty
  graphs.push_back(CsrGraph::from_edges(1, {}));  // isolated node
  graphs.push_back(CsrGraph::from_edges(4, {}));  // several isolated nodes
  graphs.push_back(make_path(7));
  graphs.push_back(make_cycle(8));
  graphs.push_back(make_complete(5));
  graphs.push_back(make_complete_bipartite(1, 6));
  graphs.push_back(make_random_connected(40, 25, 901));
  graphs.push_back(make_random_tree(30, 902));
  graphs.push_back(make_random_gnp(25, 0.2, 903));
  return graphs;
}

// Centre 0 is adjacent to hubs 1 and 2; hub 1 owns `per_hub` leaves with
// ids high + stride * i, hub 2 owns low + stride * i. BFS from 0 discovers
// layer 2 high ids first, so the layer arrives out of host-id order.
CsrGraph make_two_hubs(NodeId per_hub, NodeId stride) {
  const NodeId low = 3;
  const NodeId high = low + per_hub * stride;
  std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {0, 2}};
  for (NodeId i = 0; i < per_hub; ++i) {
    edges.emplace_back(1, high + stride * i);
    edges.emplace_back(2, low + stride * i);
  }
  return CsrGraph::from_edges(high + per_hub * stride, edges);
}

// Graphs whose balls hold BFS layers of more than 64 nodes. Their host ids
// fill a narrow range, so BallScratch emits them by scanning that range,
// except in the two-hub graph with stride 10 (wide: sorted); the G(M, r)
// instance has layers of both kinds.
std::vector<CsrGraph> hub_graphs() {
  std::vector<CsrGraph> graphs;
  graphs.push_back(make_complete_bipartite(1, 250));
  std::vector<std::pair<NodeId, NodeId>> star_tail;  // tail 200-201-...-205
  for (NodeId leaf = 1; leaf <= 200; ++leaf) {
    star_tail.emplace_back(0, leaf);
  }
  for (NodeId t = 200; t < 205; ++t) {
    star_tail.emplace_back(t, t + 1);
  }
  graphs.push_back(CsrGraph::from_edges(206, star_tail));
  graphs.push_back(make_two_hubs(150, 1));   // dense: ids fill the range
  graphs.push_back(make_two_hubs(100, 10));  // wide: ids 10 apart
  tm::FragmentPolicy policy;
  policy.max_fragments = 60;
  policy.seed = 7;
  graphs.push_back(
      halting::build_gmr({tm::halt_after(2, 0), 1, 3, policy, false, 4096})
          .graph.graph());
  return graphs;
}

// ---------------------------------------------------------------------------
// Construction routes agree
// ---------------------------------------------------------------------------

TEST(CsrConstruction, FromEdgesAndSpanCopyAgree) {
  for (const CsrGraph& g : sample_graphs()) {
    const auto edges = g.edges();

    const CsrGraph from_list = CsrGraph::from_edges(g.node_count(), edges);
    const CsrGraph from_span = CsrGraph(g.span());

    EXPECT_TRUE(from_list == g);
    EXPECT_TRUE(from_span == g);
    EXPECT_EQ(from_list.edges(), edges);
    EXPECT_EQ(from_span.edges(), edges);
  }
}

TEST(CsrConstruction, FromEdgesIsInsertionOrderIndependent) {
  const CsrGraph reference = make_random_connected(30, 20, 904);
  auto edges = reference.edges();
  // Reversed and interleaved orders must freeze to the same arrays.
  std::reverse(edges.begin(), edges.end());
  EXPECT_TRUE(CsrGraph::from_edges(reference.node_count(), edges) == reference);
  std::vector<std::pair<NodeId, NodeId>> swapped;
  for (const auto& [u, v] : edges) {
    swapped.emplace_back(v, u);  // endpoint order must not matter either
  }
  EXPECT_TRUE(CsrGraph::from_edges(reference.node_count(), swapped) ==
              reference);
}

TEST(CsrConstruction, FromEdgesRejectsMalformedInput) {
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 0}}), Error);        // loop
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 3}}), Error);        // out of range
  EXPECT_THROW(CsrGraph::from_edges(3, {{-1, 1}}), Error);       // negative id
  EXPECT_THROW(CsrGraph::from_edges(3, {{0, 1}, {1, 0}}), Error);  // duplicate
}

TEST(CsrConstruction, OffsetsAndRowsAreCanonical) {
  for (const CsrGraph& g : sample_graphs()) {
    const CsrSpan s = g.span();
    ASSERT_EQ(s.offsets[0], 0u);
    std::size_t directed = 0;
    for (NodeId v = 0; v < s.node_count(); ++v) {
      const NeighborSpan row = s.neighbors(v);
      EXPECT_EQ(row.size(), static_cast<std::size_t>(s.degree(v)));
      EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
      EXPECT_EQ(std::adjacent_find(row.begin(), row.end()), row.end());
      directed += row.size();
    }
    EXPECT_EQ(directed, 2 * g.edge_count());
  }
}

// ---------------------------------------------------------------------------
// Read API vs reference rows
// ---------------------------------------------------------------------------

// Reference adjacency with no CSR code: one row per node, filled from the
// edge list in both directions, then sorted.
std::vector<std::vector<NodeId>> reference_rows(
    NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::vector<NodeId>> rows(static_cast<std::size_t>(n));
  for (const auto& [u, v] : edges) {
    rows[static_cast<std::size_t>(u)].push_back(v);
    rows[static_cast<std::size_t>(v)].push_back(u);
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
  }
  return rows;
}

TEST(CsrEquivalence, NeighborIterationMatchesReferenceRows) {
  for (const CsrGraph& g : sample_graphs()) {
    const auto edges = g.edges();
    const auto rows = reference_rows(g.node_count(), edges);
    ASSERT_EQ(static_cast<NodeId>(rows.size()), g.node_count());
    ASSERT_EQ(edges.size(), g.edge_count());
    std::size_t max_degree = 0;
    for (const auto& row : rows) {
      max_degree = std::max(max_degree, row.size());
    }
    EXPECT_EQ(static_cast<NodeId>(max_degree), g.max_degree());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& row = rows[static_cast<std::size_t>(v)];
      EXPECT_EQ(static_cast<NodeId>(row.size()), g.degree(v));
      // Same neighbours in the same (ascending) order.
      EXPECT_EQ(g.neighbors(v).to_vector(), row);
      for (NodeId u = 0; u < g.node_count(); ++u) {
        EXPECT_EQ(g.has_edge(v, u),
                  std::binary_search(row.begin(), row.end(), u));
      }
    }
  }
}

TEST(CsrEquivalence, BfsBallMembershipMatchesAdjacencyListReference) {
  for (const CsrGraph& g : sample_graphs()) {
    if (g.node_count() == 0) {
      continue;
    }
    // Independent dense-matrix BFS: no CSR code on this side.
    const auto n = static_cast<std::size_t>(g.node_count());
    std::vector<std::vector<bool>> adjacent(n, std::vector<bool>(n, false));
    for (const auto& [u, v] : g.edges()) {
      adjacent[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = true;
      adjacent[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] = true;
    }
    for (NodeId src : {NodeId{0}, g.node_count() - 1}) {
      std::vector<int> expected(n, -1);
      expected[static_cast<std::size_t>(src)] = 0;
      for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t u = 0; u < n; ++u) {
          if (expected[u] < 0) continue;
          for (std::size_t v = 0; v < n; ++v) {
            if (adjacent[u][v] &&
                (expected[v] < 0 || expected[v] > expected[u] + 1)) {
              expected[v] = expected[u] + 1;
              changed = true;
            }
          }
        }
      }
      EXPECT_EQ(bfs_distances(g, src), expected);
      for (int radius : {0, 1, 2, 3}) {
        std::vector<NodeId> want;
        for (std::size_t v = 0; v < n; ++v) {
          if (expected[v] >= 0 && expected[v] <= radius) {
            want.push_back(static_cast<NodeId>(v));
          }
        }
        std::vector<NodeId> got = nodes_within(g, src, radius);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want);
      }
    }
  }
}

// The legacy pipeline, nodes_within + induced_subgraph, is the reference:
// same members in the same (distance, host id) order, same rows.
TEST(CsrEquivalence, BallSliceMatchesNodesWithinAndInducedEdges) {
  BallScratch scratch;
  std::vector<CsrGraph> graphs = sample_graphs();
  for (CsrGraph& g : hub_graphs()) {
    graphs.push_back(std::move(g));
  }
  for (const CsrGraph& g : graphs) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      for (int radius : {0, 1, 2, 3}) {
        const BallSlice slice = scratch.extract(g, v, radius);
        ASSERT_EQ(slice.center, 0);
        const std::vector<NodeId> want = nodes_within(g, v, radius);
        const std::vector<NodeId> hosts(
            slice.to_host, slice.to_host + slice.local.node_count());
        ASSERT_EQ(hosts, want) << "v=" << v << " radius=" << radius;
        const InducedSubgraph sub = induced_subgraph(g, want);
        for (NodeId a = 0; a < slice.local.node_count(); ++a) {
          ASSERT_EQ(slice.local.neighbors(a), sub.graph.neighbors(a))
              << "v=" << v << " radius=" << radius << " row " << a;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Census: byte identity across families, sizes, and thread counts
// ---------------------------------------------------------------------------

TEST(CsrCensus, RegistryHoldsTheFullFamilyGrid) {
  EXPECT_GE(gen::family_registry().size(), 12u);
}

TEST(CsrCensus, ByteIdenticalAcrossFamiliesSizesAndThreads) {
  exec::ThreadPool two(2);
  exec::ThreadPool four(4);
  for (const gen::Family& family : gen::family_registry()) {
    for (int size : {24, 60}) {
      const gen::FamilyInstanceSpec spec =
          gen::resolve_family_text(family.name, size);
      const CsrGraph g = spec.build(5);
      const std::vector<std::string> payloads(
          static_cast<std::size_t>(g.node_count()));
      const BallCensusResult serial = canonical_census(g, payloads, 2);
      for (exec::ThreadPool* pool : {&two, &four}) {
        const BallCensusResult pooled = canonical_census(g, payloads, 2, pool);
        ASSERT_EQ(serial.class_of, pooled.class_of)
            << family.name << " size " << size;
        ASSERT_EQ(serial.class_representative, pooled.class_representative)
            << family.name << " size " << size;
        ASSERT_EQ(serial.class_encoding, pooled.class_encoding)
            << family.name << " size " << size;
        EXPECT_EQ(serial.distinct, pooled.distinct);
      }
    }
  }
}

TEST(CsrCensus, EncodingsMatchPerBallCanonicalForm) {
  BallScratch scratch;
  for (const gen::Family& family : gen::family_registry()) {
    const gen::FamilyInstanceSpec spec =
        gen::resolve_family_text(family.name, 24);
    const CsrGraph g = spec.build(5);
    const std::vector<std::string> payloads(
        static_cast<std::size_t>(g.node_count()));
    const BallCensusResult census = canonical_census(g, payloads, 2);
    for (NodeId v = 0; v < g.node_count(); v += 5) {
      const BallSlice slice = scratch.extract(g, v, 2);
      // Centre-marked payloads, matching the census's "C"/"N" scheme.
      std::vector<std::string> marked(
          static_cast<std::size_t>(slice.local.node_count()),
          std::string(1, 'N'));
      marked[0].front() = 'C';
      EXPECT_EQ(canonical_form(slice.local, marked).encoding,
                census.encoding_of(v))
          << family.name << " node " << v;
    }
  }
}

}  // namespace
}  // namespace locald::graph
