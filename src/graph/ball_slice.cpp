#include "graph/ball_slice.h"

#include <algorithm>
#include <limits>

namespace locald::graph {

namespace {

// Dense-layer test: a layer this large whose host ids span less than
// kDenseSpanFactor times its size is cheaper to emit by scanning the span
// for its stamp than by sorting it (hub balls, whose layers are whole id
// ranges of the host).
constexpr std::size_t kDenseLayerMin = 64;
constexpr std::size_t kDenseSpanFactor = 4;

}  // namespace

void BallScratch::emit_layer(std::size_t begin, std::uint32_t stamp) {
  const auto first = members_.begin() + static_cast<std::ptrdiff_t>(begin);
  const std::size_t size = members_.size() - begin;
  if (size > kDenseLayerMin) {
    const auto [lo, hi] = std::minmax_element(first, members_.end());
    const NodeId low = *lo;
    const NodeId high = *hi;
    if (static_cast<std::size_t>(high - low) + 1 < kDenseSpanFactor * size) {
      std::size_t out = begin;
      for (NodeId w = low; w <= high; ++w) {
        if (stamp_[static_cast<std::size_t>(w)] == stamp) {
          members_[out++] = w;
        }
      }
      return;
    }
  }
  std::sort(first, members_.end());
}

BallSlice BallScratch::extract(const CsrSpan& host, NodeId v, int radius) {
  LOCALD_CHECK(radius >= 0, "radius must be non-negative");
  host.check_node(v);
  if (stamp_.size() < static_cast<std::size_t>(host.n)) {
    stamp_.resize(static_cast<std::size_t>(host.n), 0);
    local_of_.resize(static_cast<std::size_t>(host.n));
  }
  // Layer d is stamped base + d, so one extraction spends up to radius + 1
  // stamps (never more than the host has nodes). Reset once when they
  // would run past the top of the counter.
  const std::uint32_t layers = static_cast<std::uint32_t>(
      std::min<std::int64_t>(radius, host.n - 1) + 1);
  if (epoch_ > std::numeric_limits<std::uint32_t>::max() - layers) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 0;
  }
  const std::uint32_t base = epoch_ + 1;

  members_.clear();
  members_.push_back(v);
  stamp_[static_cast<std::size_t>(v)] = base;
  layer_begin_.clear();
  layer_begin_.push_back(0);
  std::size_t frontier_begin = 0;
  epoch_ = base;
  for (int d = 0; d < radius; ++d) {
    const std::size_t frontier_end = members_.size();
    if (frontier_begin == frontier_end) {
      break;
    }
    const std::uint32_t next = base + static_cast<std::uint32_t>(d) + 1;
    for (std::size_t i = frontier_begin; i < frontier_end; ++i) {
      for (NodeId w : host.neighbors(members_[i])) {
        auto& s = stamp_[static_cast<std::size_t>(w)];
        if (s < base) {
          s = next;
          members_.push_back(w);
        }
      }
    }
    epoch_ = next;
    emit_layer(frontier_end, next);
    layer_begin_.push_back(static_cast<NodeId>(frontier_end));
    frontier_begin = frontier_end;
  }
  layer_begin_.push_back(static_cast<NodeId>(members_.size()));

  const NodeId b = static_cast<NodeId>(members_.size());
  for (NodeId i = 0; i < b; ++i) {
    local_of_[static_cast<std::size_t>(members_[static_cast<std::size_t>(i)])] =
        i;
  }

  // Row assembly without a per-row sort: host rows are ascending in host
  // id, and local ids are assigned in (BFS layer, host id) order, so
  // within one layer the mapped local ids arrive already ascending. A
  // member's in-ball neighbours span at most the layer below, its own,
  // and the layer above — three ascending runs occupying disjoint,
  // increasing local-id ranges. Bucketing each mapped id by layer and
  // concatenating the buckets therefore yields the sorted row in O(deg),
  // which is what keeps dense balls (complete-bipartite censuses) cheap.
  offsets_.assign(static_cast<std::size_t>(b) + 1, 0);
  adj_.clear();
  std::size_t layer = 0;  // members_[u]'s layer; u ascends, so walk forward
  for (NodeId u = 0; u < b; ++u) {
    while (layer_begin_[layer + 1] <= u) {
      ++layer;
    }
    const NodeId own_begin = layer_begin_[layer];
    const NodeId above_begin = layer_begin_[layer + 1];
    row_own_.clear();
    row_above_.clear();
    for (NodeId w : host.neighbors(members_[static_cast<std::size_t>(u)])) {
      if (stamp_[static_cast<std::size_t>(w)] < base) {
        continue;
      }
      const NodeId l = local_of_[static_cast<std::size_t>(w)];
      if (l < own_begin) {
        adj_.push_back(l);  // layer below: lands first, in place
      } else if (l < above_begin) {
        row_own_.push_back(l);
      } else {
        row_above_.push_back(l);
      }
    }
    adj_.insert(adj_.end(), row_own_.begin(), row_own_.end());
    adj_.insert(adj_.end(), row_above_.begin(), row_above_.end());
    offsets_[static_cast<std::size_t>(u) + 1] =
        static_cast<EdgeIndex>(adj_.size());
  }

  return BallSlice{CsrSpan{b, offsets_.data(), adj_.data()}, members_.data(),
                   0, radius};
}

}  // namespace locald::graph
