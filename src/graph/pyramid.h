// Quadtree pyramids (Appendix A, Figure 3 of the paper).
//
// A pyramid over a 2^h x 2^h grid has levels z = 0..h; level z is a
// 2^{h-z} x 2^{h-z} grid graph, and each node (x, y, z) with z < h is
// additionally connected to its quadtree parent (x/2, y/2, z+1). Attaching
// the pyramid to an execution table makes the table's global structure
// locally checkable: every pyramid has a unique apex which fixes the
// geometry (the paper's step 2).
//
// The builders live here — in the graph layer — so the halting subsystem's
// pyramidal G(M, r) assembly and the gen/ workload-generator's `pyramid`
// family share one implementation.
#pragma once

#include <cstdint>
#include <functional>

#include "graph/csr.h"

namespace locald::graph {

class PyramidIndexer {
 public:
  explicit PyramidIndexer(int h);

  int height() const { return h_; }
  int side(int z) const {
    LOCALD_CHECK(z >= 0 && z <= h_, "level out of range");
    return 1 << (h_ - z);
  }

  NodeId node_count() const { return total_; }
  NodeId id(int x, int y, int z) const;
  NodeId apex() const { return id(0, 0, h_); }

 private:
  int h_;
  std::vector<NodeId> level_offset_;
  NodeId total_ = 0;
};

// The full pyramid graph (levels 0..h with grid + parent edges).
CsrGraph build_pyramid(const PyramidIndexer& indexer);

// Convenience: the height-h pyramid under the canonical indexing.
CsrGraph make_pyramid(int h);

// Adds pyramid levels 1..h on top of an existing 2^h x 2^h level-0 grid
// (node (x, y) at id base(x, y)): appends their grid and parent edges to
// `edges`. The indexer.node_count() - side(0)^2 added nodes take the ids
// first, first + 1, ... level by level in row-major order. Returns `first`.
NodeId attach_pyramid(EdgeList& edges, NodeId first,
                      const PyramidIndexer& indexer,
                      const std::function<NodeId(int, int)>& base);

// Exact structural oracle: is `g` the pyramid over a 2^h x 2^h grid?
bool is_pyramid(const CsrGraph& g, int h);

}  // namespace locald::graph
