// Zero-copy radius-t ball slices over a host CSR graph.
//
// A `BallSlice` is what a local algorithm sees at a node: the induced
// subgraph on B(v, t), renumbered to dense local ids. Instead of copying a
// graph object per ball, the slice is an index view assembled inside a
// reusable `BallScratch` arena — a stamped host→local remap plus row
// buffers that the slice's `CsrSpan` points into. Each extraction stamps
// BFS layer d as `base + d` with a fresh `base` above every earlier stamp,
// so membership is `stamp >= base` and no O(n) clear is needed between
// extractions. Extracting the next ball reuses every allocation, which is
// what makes the bulk census and the node loop of the simulator cheap at
// 10^6–10^7 host nodes.
//
// Ordering contract (matches the legacy nodes_within + induced_subgraph
// pipeline byte for byte): local id 0 is the centre; each BFS layer is
// appended sorted by ascending host id; every adjacency row is sorted by
// local id. A layer is put in host-id order by one of two equivalent
// routes: a sort, or — for a large layer whose ids fill a narrow host-id
// range, as a hub's neighbourhood does — a scan of that range for the
// layer's stamp, which costs O(range) instead of O(size log size).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace locald::graph {

struct BallSlice {
  CsrSpan local;                     // adjacency over local ids
  const NodeId* to_host = nullptr;   // local -> host, (distance, host id) order
  NodeId center = 0;                 // local id of the centre (always 0)
  int radius = 0;
};

// Reusable per-thread extraction arena. The returned slice aliases the
// scratch and is valid until the next extract() or destruction.
class BallScratch {
 public:
  BallScratch() = default;
  BallScratch(const BallScratch&) = delete;
  BallScratch& operator=(const BallScratch&) = delete;

  BallSlice extract(const CsrSpan& host, NodeId v, int radius);

 private:
  // Puts members_[begin, end()) — one BFS layer, all stamped `stamp` — in
  // ascending host-id order.
  void emit_layer(std::size_t begin, std::uint32_t stamp);

  // base + d for a host node in layer d of the current ball; stamps below
  // base are stale leftovers of earlier extractions.
  std::vector<std::uint32_t> stamp_;
  std::vector<NodeId> local_of_;      // host -> local, valid where in ball
  std::uint32_t epoch_ = 0;           // highest stamp handed out so far
  std::vector<NodeId> members_;       // local -> host
  std::vector<NodeId> layer_begin_;   // local id starting each BFS layer
  std::vector<NodeId> row_own_;       // same-layer bucket of the current row
  std::vector<NodeId> row_above_;     // next-layer bucket of the current row
  std::vector<EdgeIndex> offsets_;
  std::vector<NodeId> adj_;
};

}  // namespace locald::graph
