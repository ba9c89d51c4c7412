// Graph serialization: Graphviz DOT for inspection, edge lists for tests.
//
// DOT output exists to eyeball the paper's constructions (layered trees,
// G(M, r) grids, pyramids) in a viewer; the edge-list round-trip
// (`to_edge_list`/`from_edge_list`) gives tests a canonical, diffable text
// form — lines are "u v" with u < v, sorted — so golden files and equality
// assertions do not depend on adjacency-list ordering.
#pragma once

#include <string>
#include <vector>

#include "graph/csr.h"

namespace locald::graph {

// DOT output; `node_labels` (optional, may be empty) annotates nodes.
std::string to_dot(const CsrGraph& g, const std::vector<std::string>& node_labels,
                   const std::string& name = "G");

std::string to_dot(const CsrGraph& g, const std::string& name = "G");

// "u v" pairs, one per line, u < v, sorted.
std::string to_edge_list(const CsrGraph& g);

// Inverse of to_edge_list; node count inferred as max id + 1 unless
// `min_nodes` asks for more. Throws Error unless the whole text is "u v"
// pairs of non-negative ids forming a simple graph: a stray or partial
// token, a loop, or an edge listed twice (in either orientation) is
// rejected, never truncated or merged.
CsrGraph from_edge_list(const std::string& text, NodeId min_nodes = 0);

}  // namespace locald::graph
