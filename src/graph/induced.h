// Induced subgraphs with bidirectional node maps.
//
// The owning, general-subset variant of ball extraction. Nothing in the
// library extracts balls through it: graph/ball_slice.h's zero-copy slice
// arena is the one extraction path. Together with `nodes_within` it stays
// as the straightforward reference the tests compare that arena against.
#pragma once

#include <unordered_map>
#include <vector>

#include "graph/csr.h"

namespace locald::graph {

struct InducedSubgraph {
  CsrGraph graph;
  // to_parent[i] = host id of subgraph node i.
  std::vector<NodeId> to_parent;
  // host id -> subgraph id (only nodes that were kept).
  std::unordered_map<NodeId, NodeId> from_parent;
};

// Induced subgraph on `nodes` (must be distinct). Subgraph node i corresponds
// to nodes[i], preserving the caller's ordering.
InducedSubgraph induced_subgraph(CsrSpan g, const std::vector<NodeId>& nodes);

}  // namespace locald::graph
