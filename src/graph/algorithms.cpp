#include "graph/algorithms.h"

#include <algorithm>
#include <cstdint>
#include <deque>

namespace locald::graph {

std::vector<int> bfs_distances(CsrSpan g, NodeId src, int max_dist) {
  LOCALD_CHECK(src >= 0 && src < g.node_count(), "bfs source out of range");
  std::vector<int> dist(static_cast<std::size_t>(g.node_count()), kUnreached);
  std::deque<NodeId> queue;
  dist[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (max_dist >= 0 && dist[u] >= max_dist) {
      continue;
    }
    for (NodeId w : g.neighbors(u)) {
      if (dist[w] == kUnreached) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

std::vector<NodeId> nodes_within(CsrSpan g, NodeId src, int radius) {
  LOCALD_CHECK(radius >= 0, "radius must be non-negative");
  LOCALD_CHECK(src >= 0 && src < g.node_count(), "source out of range");
  // Local BFS with a sorted-vector visited set: cost proportional to the
  // ball, not the host graph, so extracting many balls from a large graph
  // stays cheap.
  std::vector<NodeId> frontier{src};
  std::vector<NodeId> result{src};
  std::vector<NodeId> visited{src};
  auto is_visited = [&](NodeId v) {
    return std::binary_search(visited.begin(), visited.end(), v);
  };
  auto mark_visited = [&](NodeId v) {
    visited.insert(std::lower_bound(visited.begin(), visited.end(), v), v);
  };
  for (int d = 0; d < radius && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      for (NodeId w : g.neighbors(u)) {
        if (!is_visited(w)) {
          mark_visited(w);
          next.push_back(w);
        }
      }
    }
    std::sort(next.begin(), next.end());
    result.insert(result.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  return result;
}

TwoColouring two_colour(CsrSpan g) {
  TwoColouring out;
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<std::int8_t> side(n, -1);
  // Every node is queued exactly once, so one n-slot queue serves every
  // component in turn.
  std::vector<NodeId> queue;
  queue.reserve(n);
  std::size_t head = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (side[static_cast<std::size_t>(s)] != -1) {
      continue;
    }
    ++out.components;
    side[static_cast<std::size_t>(s)] = 0;
    queue.push_back(s);
    for (; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      const std::int8_t colour = side[static_cast<std::size_t>(u)];
      for (NodeId w : g.neighbors(u)) {
        std::int8_t& other = side[static_cast<std::size_t>(w)];
        if (other == -1) {
          other = static_cast<std::int8_t>(colour ^ 1);
          queue.push_back(w);
        } else if (other == colour) {
          out.bipartite = false;
        }
      }
    }
  }
  return out;
}

bool is_connected(CsrSpan g) { return two_colour(g).components <= 1; }

bool is_bipartite(CsrSpan g) { return two_colour(g).bipartite; }

bool is_cycle_graph(CsrSpan g) {
  if (g.node_count() < 3 || !is_connected(g)) {
    return false;
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.degree(v) != 2) {
      return false;
    }
  }
  return true;
}

bool is_tree(CsrSpan g) {
  if (g.node_count() == 0) {
    return false;
  }
  return is_connected(g) &&
         g.edge_count() == static_cast<std::size_t>(g.node_count()) - 1;
}

}  // namespace locald::graph
