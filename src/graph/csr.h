// Immutable CSR (compressed sparse row) adjacency core.
//
// `CsrGraph` is the read-only topological substrate every hot path walks:
// two contiguous arrays — `offsets` (n+1 prefix sums) and `adj` (all
// neighbour rows back to back, each sorted ascending). Every graph locald
// builds — the family generators, the Section-2 patch instances, the
// Section-3 G(M, r) graphs and their pyramids, reconstructed and mutated
// instances — is assembled as an edge list and frozen once by
// `CsrGraph::from_edges`: one counting pass, one scatter pass, row sorts,
// and the loop / range / duplicate checks. The only other constructors are
// the empty graph and the deep copy of a span.
//
// `CsrSpan` is the non-owning view {n, offsets, adj} shared by whole
// graphs and ball slices (graph/ball_slice.h): the canonicalization
// engine, BFS, and the deciders all consume spans, so a radius-t ball
// needs no graph copy — only a remap into scratch-owned rows.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/check.h"

namespace locald::graph {

// Nodes are dense integers [0, node_count()).
using NodeId = std::int32_t;

// Undirected edges {u, v}, in any order and orientation: the input of
// CsrGraph::from_edges.
using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

// Index into the flat adjacency array. 2^32 directed edge slots cap the
// graph at ~2.1e9 undirected edges — far above the 10^7-node bench grid.
using EdgeIndex = std::uint32_t;

// One neighbour row: contiguous, sorted ascending.
class NeighborSpan {
 public:
  using value_type = NodeId;
  using const_iterator = const NodeId*;

  NeighborSpan() = default;
  NeighborSpan(const NodeId* data, std::size_t size)
      : data_(data), size_(size) {}

  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + size_; }
  const NodeId* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  NodeId operator[](std::size_t i) const {
    LOCALD_CHECK(i < size_, "neighbor index out of range");
    return data_[i];
  }

  std::vector<NodeId> to_vector() const {
    return std::vector<NodeId>(begin(), end());
  }

 private:
  const NodeId* data_ = nullptr;
  std::size_t size_ = 0;
};

bool operator==(const NeighborSpan& a, const NeighborSpan& b);

// Non-owning CSR adjacency view. The single code path shared by CsrGraph
// and ball slices; aggregate so slices can be assembled in place.
struct CsrSpan {
  NodeId n = 0;
  const EdgeIndex* offsets = nullptr;  // n + 1 entries, offsets[0] == 0
  const NodeId* adj = nullptr;         // offsets[n] entries

  NodeId node_count() const { return n; }

  std::size_t edge_count() const {
    return n == 0 ? 0 : static_cast<std::size_t>(offsets[n]) / 2;
  }

  NodeId degree(NodeId v) const {
    check_node(v);
    return static_cast<NodeId>(offsets[v + 1] - offsets[v]);
  }

  // Sorted ascending.
  NeighborSpan neighbors(NodeId v) const {
    check_node(v);
    return NeighborSpan(adj + offsets[v], offsets[v + 1] - offsets[v]);
  }

  bool has_edge(NodeId u, NodeId v) const;

  NodeId max_degree() const;

  // Deterministic edge list (u < v, lexicographic).
  EdgeList edges() const;

  void check_node(NodeId v) const {
    LOCALD_CHECK(v >= 0 && v < n, "node id out of range");
  }
};

// Owning, immutable CSR graph.
class CsrGraph {
 public:
  CsrGraph() : offsets_(1, 0) {}

  // Deep copy of a span (used to lift a scratch-backed ball slice into an
  // owning Ball).
  explicit CsrGraph(const CsrSpan& span);

  // Builds from an undirected edge list (u != v, ids in [0, n)); loops,
  // out-of-range ids and duplicates ({u, v} twice, in either orientation)
  // are rejected. One counting pass + one scatter pass + row sorts.
  static CsrGraph from_edges(NodeId n, const EdgeList& edges);

  NodeId node_count() const {
    return static_cast<NodeId>(offsets_.size()) - 1;
  }
  std::size_t edge_count() const { return adj_.size() / 2; }

  NodeId degree(NodeId v) const { return span().degree(v); }
  NeighborSpan neighbors(NodeId v) const { return span().neighbors(v); }
  bool has_edge(NodeId u, NodeId v) const { return span().has_edge(u, v); }
  NodeId max_degree() const { return span().max_degree(); }
  EdgeList edges() const {
    return span().edges();
  }

  CsrSpan span() const {
    return CsrSpan{node_count(), offsets_.data(), adj_.data()};
  }
  operator CsrSpan() const { return span(); }

  bool operator==(const CsrGraph& other) const {
    return offsets_ == other.offsets_ && adj_ == other.adj_;
  }

 private:
  std::vector<EdgeIndex> offsets_;  // node_count() + 1 entries
  std::vector<NodeId> adj_;
};

}  // namespace locald::graph
