// Classic traversals and structure queries on CSR spans.
//
// These are the primitives the paper's local-model machinery is built from:
// `nodes_within` delimits the radius-t ball B(v, t) that a local algorithm
// sees (Section 1.2), and the shape predicates (`is_cycle_graph`, `is_tree`)
// back the warm-up promise problems and let tests certify generated
// families. Everything here is exact and intended for the small graphs of
// the reproduction (balls, fragments, instances up to a few hundred
// thousand nodes), not for streaming scale.
#pragma once

#include <vector>

#include "graph/csr.h"

namespace locald::graph {

constexpr int kUnreached = -1;

// BFS distances from src; kUnreached for nodes farther than `max_dist`
// (or unreachable). max_dist < 0 means unbounded.
std::vector<int> bfs_distances(CsrSpan g, NodeId src, int max_dist = -1);

// Nodes within distance `radius` of src, in BFS (distance, id) order. The
// tests' reference for graph::BallScratch::extract's member order.
std::vector<NodeId> nodes_within(CsrSpan g, NodeId src, int radius);

bool is_connected(CsrSpan g);

bool is_bipartite(CsrSpan g);

// True if the graph is a single cycle of length >= 3.
bool is_cycle_graph(CsrSpan g);

// True if the graph is connected and acyclic.
bool is_tree(CsrSpan g);

}  // namespace locald::graph
