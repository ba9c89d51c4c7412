#include "graph/csr.h"

#include <algorithm>

namespace locald::graph {

bool operator==(const NeighborSpan& a, const NeighborSpan& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool CsrSpan::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  const NodeId* first = adj + offsets[u];
  const NodeId* last = adj + offsets[u + 1];
  return std::binary_search(first, last, v);
}

NodeId CsrSpan::max_degree() const {
  NodeId best = 0;
  for (NodeId v = 0; v < n; ++v) {
    best = std::max(best, degree(v));
  }
  return best;
}

EdgeList CsrSpan::edges() const {
  EdgeList out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) {
        out.emplace_back(u, v);
      }
    }
  }
  return out;
}

CsrGraph::CsrGraph(const CsrSpan& span)
    : offsets_(span.offsets, span.offsets + span.n + 1),
      adj_(span.adj, span.adj + (span.n == 0 ? 0 : span.offsets[span.n])) {}

CsrGraph CsrGraph::from_edges(NodeId n, const EdgeList& edges) {
  LOCALD_CHECK(n >= 0, "negative node count");
  const std::size_t slots = 2 * edges.size();
  LOCALD_CHECK(slots <= static_cast<std::size_t>(UINT32_MAX),
               "graph exceeds the 32-bit edge-index capacity");
  CsrGraph g;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    LOCALD_CHECK(u >= 0 && u < n && v >= 0 && v < n,
                 "edge endpoint out of range");
    LOCALD_CHECK(u != v, "self-loops are not allowed in a simple graph");
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  // offsets_[u + 1] becomes row u's start and serves as its fill cursor;
  // once every arc is placed it has advanced to row u's end, which is the
  // final offsets_[u + 1].
  EdgeIndex start = 0;
  for (std::size_t u = 1; u < g.offsets_.size(); ++u) {
    const EdgeIndex degree = g.offsets_[u];
    g.offsets_[u] = start;
    start += degree;
  }
  g.adj_.resize(slots);
  for (const auto& [u, v] : edges) {
    g.adj_[g.offsets_[static_cast<std::size_t>(u) + 1]++] = v;
    g.adj_[g.offsets_[static_cast<std::size_t>(v) + 1]++] = u;
  }
  for (NodeId v = 0; v < n; ++v) {
    NodeId* first = g.adj_.data() + g.offsets_[static_cast<std::size_t>(v)];
    NodeId* last = g.adj_.data() + g.offsets_[static_cast<std::size_t>(v) + 1];
    std::sort(first, last);
    LOCALD_CHECK(std::adjacent_find(first, last) == last, "duplicate edge");
  }
  return g;
}

}  // namespace locald::graph
