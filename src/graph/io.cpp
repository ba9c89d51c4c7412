#include "graph/io.h"

#include <algorithm>
#include <sstream>

namespace locald::graph {

std::string to_dot(const CsrGraph& g, const std::vector<std::string>& node_labels,
                   const std::string& name) {
  LOCALD_CHECK(node_labels.empty() ||
                   node_labels.size() ==
                       static_cast<std::size_t>(g.node_count()),
               "label count must match node count");
  std::ostringstream os;
  os << "graph " << name << " {\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "  n" << v;
    if (!node_labels.empty()) {
      os << " [label=\"" << node_labels[static_cast<std::size_t>(v)] << "\"]";
    }
    os << ";\n";
  }
  for (const auto& [u, v] : g.edges()) {
    os << "  n" << u << " -- n" << v << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const CsrGraph& g, const std::string& name) {
  return to_dot(g, {}, name);
}

std::string to_edge_list(const CsrGraph& g) {
  std::ostringstream os;
  for (const auto& [u, v] : g.edges()) {
    os << u << " " << v << "\n";
  }
  return os.str();
}

CsrGraph from_edge_list(const std::string& text, NodeId min_nodes) {
  std::istringstream is(text);
  EdgeList edges;
  NodeId max_id = min_nodes - 1;
  while (!(is >> std::ws).eof()) {
    NodeId u = 0;
    NodeId v = 0;
    LOCALD_CHECK(is >> u >> v,
                 "malformed edge list: expected \"u v\" id pairs");
    LOCALD_CHECK(u >= 0 && v >= 0, "edge list ids must be non-negative");
    edges.emplace_back(u, v);
    max_id = std::max({max_id, u, v});
  }
  return CsrGraph::from_edges(max_id + 1, edges);
}

}  // namespace locald::graph
