// Classic traversals and structure queries on CSR spans.
//
// These are the primitives the paper's local-model machinery is built from:
// `nodes_within` delimits the radius-t ball B(v, t) that a local algorithm
// sees (Section 1.2), the shape predicates (`is_cycle_graph`, `is_tree`,
// `is_path_graph`) back the warm-up promise problems and tree families, and
// `diameter`/`eccentricity` are used by tests to certify that constructed
// instances have the claimed locality structure. Everything here is exact
// and intended for the small graphs of the reproduction (balls, fragments,
// instances up to a few hundred thousand nodes), not for streaming scale.
#pragma once

#include <optional>
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

// Component id per node (0-based, in order of discovery) and the count.
std::vector<int> connected_components(CsrSpan g, int* component_count);

// Max distance from v to any node; kUnreached if g is disconnected.
int eccentricity(CsrSpan g, NodeId v);

// Exact diameter by all-sources BFS; kUnreached if disconnected.
// Intended for small graphs (balls, fragments).
int diameter(CsrSpan g);

bool is_bipartite(CsrSpan g);

// One shortest path src -> dst (inclusive); nullopt if unreachable.
std::optional<std::vector<NodeId>> shortest_path(CsrSpan g, NodeId src,
                                                 NodeId dst);

// True if the graph is a single cycle of length >= 3.
bool is_cycle_graph(CsrSpan g);

// True if the graph is a simple path (possibly a single node).
bool is_path_graph(CsrSpan g);

// True if the graph is connected and acyclic.
bool is_tree(CsrSpan g);

}  // namespace locald::graph
