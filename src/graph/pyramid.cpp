#include "graph/pyramid.h"

#include <functional>

#include "graph/isomorphism.h"

namespace locald::graph {

PyramidIndexer::PyramidIndexer(int h) : h_(h) {
  LOCALD_CHECK(h >= 0 && h <= 12, "pyramid height out of supported range");
  level_offset_.resize(static_cast<std::size_t>(h_) + 1);
  NodeId offset = 0;
  for (int z = 0; z <= h_; ++z) {
    level_offset_[static_cast<std::size_t>(z)] = offset;
    const NodeId s = static_cast<NodeId>(side(z));
    offset += s * s;
  }
  total_ = offset;
}

NodeId PyramidIndexer::id(int x, int y, int z) const {
  const int s = side(z);
  LOCALD_CHECK(x >= 0 && x < s && y >= 0 && y < s,
               "pyramid coordinate out of range");
  return level_offset_[static_cast<std::size_t>(z)] +
         static_cast<NodeId>(y) * s + x;
}

CsrGraph build_pyramid(const PyramidIndexer& indexer) {
  EdgeList edges;
  edges.reserve(3 * static_cast<std::size_t>(indexer.node_count()));
  const int s = indexer.side(0);
  for (int y = 0; y < s; ++y) {
    for (int x = 0; x < s; ++x) {
      if (x + 1 < s) {
        edges.emplace_back(indexer.id(x, y, 0), indexer.id(x + 1, y, 0));
      }
      if (y + 1 < s) {
        edges.emplace_back(indexer.id(x, y, 0), indexer.id(x, y + 1, 0));
      }
    }
  }
  attach_pyramid(edges, s * s, indexer,
                 [&](int x, int y) { return indexer.id(x, y, 0); });
  return CsrGraph::from_edges(indexer.node_count(), edges);
}

CsrGraph make_pyramid(int h) { return build_pyramid(PyramidIndexer(h)); }

NodeId attach_pyramid(EdgeList& edges, NodeId first,
                      const PyramidIndexer& indexer,
                      const std::function<NodeId(int, int)>& base) {
  // Upper-level node (x, y, z) takes the id `first` plus its offset past
  // level 0 in the indexer's level-by-level, row-major order.
  const NodeId base_cells =
      static_cast<NodeId>(indexer.side(0)) * indexer.side(0);
  auto node_at = [&](int x, int y, int z) {
    return z == 0 ? base(x, y) : first - base_cells + indexer.id(x, y, z);
  };
  for (int z = 0; z <= indexer.height(); ++z) {
    const int s = indexer.side(z);
    for (int y = 0; y < s; ++y) {
      for (int x = 0; x < s; ++x) {
        const NodeId v = node_at(x, y, z);
        if (z > 0 && x + 1 < s) {
          edges.emplace_back(v, node_at(x + 1, y, z));
        }
        if (z > 0 && y + 1 < s) {
          edges.emplace_back(v, node_at(x, y + 1, z));
        }
        if (z < indexer.height()) {
          edges.emplace_back(v, node_at(x / 2, y / 2, z + 1));
        }
      }
    }
  }
  return first;
}

bool is_pyramid(const CsrGraph& g, int h) {
  const PyramidIndexer indexer(h);
  if (g.node_count() != indexer.node_count()) {
    return false;
  }
  return isomorphic(g, build_pyramid(indexer));
}

}  // namespace locald::graph
