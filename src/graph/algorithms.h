// Classic traversals and structure queries on CSR spans.
//
// These are the primitives the paper's local-model machinery is built from:
// `nodes_within` delimits the radius-t ball B(v, t) that a local algorithm
// sees (Section 1.2), and the shape predicates (`is_cycle_graph`, `is_tree`)
// back the warm-up promise problems and let tests certify generated
// families. `two_colour` is the bench cell's invariant audit: one BFS over
// a flat queue answers both "connected" and "bipartite" for instances of
// up to 10^6 nodes, and `is_connected` / `is_bipartite` each read one of
// its answers. Everything here is exact and intended for the graphs of the
// reproduction (balls, fragments, bench instances), not for streaming
// scale.
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

// One BFS 2-colouring pass: the number of connected components, and
// whether the graph is bipartite.
struct TwoColouring {
  NodeId components = 0;
  bool bipartite = true;
};
TwoColouring two_colour(CsrSpan g);

// True with at most one component (so for n = 0 and n = 1 too).
bool is_connected(CsrSpan g);

bool is_bipartite(CsrSpan g);

// True if the graph is a single cycle of length >= 3.
bool is_cycle_graph(CsrSpan g);

// True if the graph is connected and acyclic.
bool is_tree(CsrSpan g);

}  // namespace locald::graph
