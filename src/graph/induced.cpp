#include "graph/induced.h"

namespace locald::graph {

InducedSubgraph induced_subgraph(CsrSpan g, const std::vector<NodeId>& nodes) {
  InducedSubgraph out;
  out.to_parent = nodes;
  out.from_parent.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId host = nodes[i];
    LOCALD_CHECK(host >= 0 && host < g.node_count(),
                 "induced node outside the host graph");
    const bool fresh =
        out.from_parent.emplace(host, static_cast<NodeId>(i)).second;
    LOCALD_CHECK(fresh, "induced node list contains a duplicate");
  }
  EdgeList edges;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (NodeId w : g.neighbors(nodes[i])) {
      auto it = out.from_parent.find(w);
      if (it != out.from_parent.end() && static_cast<NodeId>(i) < it->second) {
        edges.emplace_back(static_cast<NodeId>(i), it->second);
      }
    }
  }
  out.graph = CsrGraph::from_edges(static_cast<NodeId>(nodes.size()), edges);
  return out;
}

}  // namespace locald::graph
