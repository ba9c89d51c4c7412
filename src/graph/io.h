// Graph serialization for tests.
//
// `to_edge_list` gives tests a canonical, diffable text form of a graph —
// lines are "u v" with u < v, sorted — so golden pins and equality
// assertions do not depend on adjacency-list ordering.
#pragma once

#include <string>

#include "graph/csr.h"

namespace locald::graph {

// "u v" pairs, one per line, u < v, sorted.
std::string to_edge_list(const CsrGraph& g);

}  // namespace locald::graph
