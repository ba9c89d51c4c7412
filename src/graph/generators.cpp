#include "graph/generators.h"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>
#include <vector>

#include "support/format.h"

namespace locald::graph {

CsrGraph make_path(NodeId n) {
  LOCALD_CHECK(n >= 1, "path needs at least one node");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId v = 0; v + 1 < n; ++v) {
    edges.emplace_back(v, v + 1);
  }
  return CsrGraph::from_edges(n, edges);
}

CsrGraph make_cycle(NodeId n) {
  LOCALD_CHECK(n >= 3, "cycle needs at least three nodes");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    edges.emplace_back(v, (v + 1) % n);
  }
  return CsrGraph::from_edges(n, edges);
}

CsrGraph make_complete(NodeId n) {
  LOCALD_CHECK(n >= 1, "complete graph needs at least one node");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      edges.emplace_back(u, v);
    }
  }
  return CsrGraph::from_edges(n, edges);
}

CsrGraph make_complete_bipartite(NodeId a, NodeId b) {
  LOCALD_CHECK(a >= 1 && b >= 1, "both parts need at least one node");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) {
      edges.emplace_back(u, a + v);
    }
  }
  return CsrGraph::from_edges(a + b, edges);
}

CsrGraph make_grid(NodeId width, NodeId height) {
  LOCALD_CHECK(width >= 1 && height >= 1, "grid dimensions must be positive");
  EdgeList edges;
  edges.reserve(2 * static_cast<std::size_t>(width) * height);
  auto id = [width](NodeId x, NodeId y) { return y * width + x; };
  for (NodeId y = 0; y < height; ++y) {
    for (NodeId x = 0; x < width; ++x) {
      if (x + 1 < width) {
        edges.emplace_back(id(x, y), id(x + 1, y));
      }
      if (y + 1 < height) {
        edges.emplace_back(id(x, y), id(x, y + 1));
      }
    }
  }
  return CsrGraph::from_edges(width * height, edges);
}

CsrGraph make_torus(NodeId width, NodeId height) {
  LOCALD_CHECK(width >= 3 && height >= 3,
               "torus needs both dimensions >= 3 to stay simple");
  // Each undirected edge is generated exactly once (as the right / down
  // neighbour of its lexicographically first endpoint); with both
  // dimensions >= 3 the wraparound never doubles an edge.
  EdgeList edges;
  edges.reserve(2 * static_cast<std::size_t>(width) * height);
  auto id = [width](NodeId x, NodeId y) { return y * width + x; };
  for (NodeId y = 0; y < height; ++y) {
    for (NodeId x = 0; x < width; ++x) {
      edges.emplace_back(id(x, y), id((x + 1) % width, y));
      edges.emplace_back(id(x, y), id(x, (y + 1) % height));
    }
  }
  return CsrGraph::from_edges(width * height, edges);
}

CsrGraph make_balanced_tree(NodeId arity, int depth) {
  LOCALD_CHECK(arity >= 1, "balanced tree needs arity >= 1");
  LOCALD_CHECK(depth >= 0, "negative tree depth");
  // Node count sum_{j=0..depth} arity^j, guarded against overflow.
  std::int64_t n = 0;
  std::int64_t level = 1;
  for (int j = 0; j <= depth; ++j) {
    n += level;
    LOCALD_CHECK(n <= (1LL << 30), "balanced tree too large");
    level *= arity;
  }
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId c = 1; c <= arity; ++c) {
      const std::int64_t child = static_cast<std::int64_t>(arity) * v + c;
      if (child >= n) {
        break;
      }
      edges.emplace_back(v, static_cast<NodeId>(child));
    }
  }
  return CsrGraph::from_edges(static_cast<NodeId>(n), edges);
}

CsrGraph make_caterpillar(NodeId spine, NodeId legs) {
  LOCALD_CHECK(spine >= 1, "caterpillar needs at least one spine node");
  LOCALD_CHECK(legs >= 0, "negative leg count");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(spine) * (legs + 1));
  for (NodeId v = 0; v + 1 < spine; ++v) {
    edges.emplace_back(v, v + 1);
  }
  for (NodeId v = 0; v < spine; ++v) {
    for (NodeId leg = 0; leg < legs; ++leg) {
      edges.emplace_back(v, spine + v * legs + leg);
    }
  }
  return CsrGraph::from_edges(spine * (legs + 1), edges);
}

CsrGraph make_layered_tree(int depth) {
  LOCALD_CHECK(depth >= 0 && depth <= 29, "tree depth out of supported range");
  const NodeId n = static_cast<NodeId>((1LL << (depth + 1)) - 1);
  EdgeList edges;
  edges.reserve(2 * static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : layered_tree_neighbors(depth, v)) {
      if (v < w) {
        edges.emplace_back(v, w);
      }
    }
  }
  return CsrGraph::from_edges(n, edges);
}

std::vector<NodeId> layered_tree_neighbors(int depth, NodeId v) {
  LOCALD_CHECK(depth >= 0 && depth <= 29, "tree depth out of supported range");
  const int y = TreeIndex::level(v);
  LOCALD_CHECK(y <= depth, "node outside the layered tree");
  // Level y spans [2^y - 1, 2^(y+1) - 2] in heap order, which is the
  // natural left-to-right order of the level.
  const NodeId first = static_cast<NodeId>((1LL << y) - 1);
  const NodeId last = static_cast<NodeId>((1LL << (y + 1)) - 2);
  std::vector<NodeId> out;
  if (v > 0) {
    out.push_back((v - 1) / 2);
  }
  if (v > first) {
    out.push_back(v - 1);
  }
  if (v < last) {
    out.push_back(v + 1);
  }
  if (y < depth) {
    out.push_back(2 * v + 1);
    out.push_back(2 * v + 2);
  }
  return out;
}

CsrGraph make_hypercube(int dims) {
  LOCALD_CHECK(dims >= 0 && dims <= 24, "hypercube dimension out of range");
  const NodeId n = static_cast<NodeId>(1LL << dims);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * dims / 2);
  for (NodeId v = 0; v < n; ++v) {
    for (int b = 0; b < dims; ++b) {
      const NodeId w = v ^ (1 << b);
      if (v < w) {
        edges.emplace_back(v, w);
      }
    }
  }
  return CsrGraph::from_edges(n, edges);
}

CsrGraph make_random_gnp(NodeId n, double p, std::uint64_t seed) {
  LOCALD_CHECK(n >= 0, "negative node count");
  LOCALD_CHECK(p >= 0.0 && p <= 1.0, "probability out of range");
  EdgeList edges;
  for (NodeId u = 0; u < n; ++u) {
    Rng row = Rng::stream(seed, kStreamGnp, static_cast<std::uint64_t>(u));
    for (NodeId v = u + 1; v < n; ++v) {
      if (row.bernoulli(p)) {
        edges.emplace_back(u, v);
      }
    }
  }
  return CsrGraph::from_edges(n, edges);
}

CsrGraph make_random_tree(NodeId n, std::uint64_t seed) {
  LOCALD_CHECK(n >= 1, "tree needs at least one node");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId v = 1; v < n; ++v) {
    Rng draw =
        Rng::stream(seed, kStreamRandomTree, static_cast<std::uint64_t>(v));
    edges.emplace_back(
        static_cast<NodeId>(draw.below(static_cast<std::uint64_t>(v))), v);
  }
  return CsrGraph::from_edges(n, edges);
}

CsrGraph make_random_connected(NodeId n, NodeId extra_edges,
                               std::uint64_t seed) {
  LOCALD_CHECK(n >= 1, "tree needs at least one node");
  EdgeList edges;
  std::set<std::pair<NodeId, NodeId>> present;
  for (NodeId v = 1; v < n; ++v) {
    Rng draw =
        Rng::stream(seed, kStreamRandomTree, static_cast<std::uint64_t>(v));
    const NodeId parent =
        static_cast<NodeId>(draw.below(static_cast<std::uint64_t>(v)));
    edges.emplace_back(parent, v);
    present.emplace(parent, v);
  }
  const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
  NodeId added = 0;
  std::size_t attempts = 0;
  while (added < extra_edges && edges.size() < max_edges &&
         attempts < 64 * static_cast<std::size_t>(extra_edges) + 64) {
    Rng draw = Rng::stream(seed, kStreamRandomChords, attempts);
    ++attempts;
    const NodeId u = static_cast<NodeId>(draw.below(n));
    const NodeId v = static_cast<NodeId>(draw.below(n));
    if (u != v && present.insert(std::minmax(u, v)).second) {
      edges.emplace_back(u, v);
      ++added;
    }
  }
  return CsrGraph::from_edges(n, edges);
}

CsrGraph make_random_regular(NodeId n, NodeId d, std::uint64_t seed) {
  LOCALD_CHECK(n >= 1, "regular graph needs at least one node");
  LOCALD_CHECK(d >= 0 && d < n, "degree must satisfy 0 <= d < n");
  LOCALD_CHECK((static_cast<std::int64_t>(n) * d) % 2 == 0,
               "n * d must be even for a d-regular graph");
  if (d == 0) {
    return CsrGraph::from_edges(n, {});
  }
  const std::size_t stubs = static_cast<std::size_t>(n) * d;
  // One deck and one partner table serve every round: node v's partners
  // so far sit in partners[v*d, v*d + filled[v]), at most d of them, so a
  // repeated pair is found by scanning d slots instead of a sorted insert.
  std::vector<NodeId> deck(stubs);
  std::vector<NodeId> partners(stubs);
  std::vector<NodeId> filled(static_cast<std::size_t>(n));
  auto row = [&](NodeId v) {
    return partners.data() + static_cast<std::size_t>(v) * d;
  };
  // Rejection sampling over whole pairings keeps the accepted pairing
  // uniform over simple ones. The per-round acceptance probability is
  // ~exp(-(d*d - 1)/4) — about 0.25% at d = 5, vanishing fast beyond it
  // (d = 8 is ~1e-7, hopeless at any sane budget) — so callers wanting a
  // guaranteed build should keep d <= 5, where 20000 rounds fail with
  // probability ~e^-50; the gen/ family schema enforces that bound.
  constexpr std::uint64_t kMaxRounds = 20000;
  for (std::uint64_t round = 0; round < kMaxRounds; ++round) {
    Rng rng = Rng::stream(seed, kStreamRandomRegular, round);
    // Each round shuffles the same starting deck: d stubs per node, in
    // node order.
    for (NodeId v = 0; v < n; ++v) {
      std::fill_n(deck.begin() + static_cast<std::ptrdiff_t>(v) * d, d, v);
    }
    rng.shuffle(deck);
    std::fill(filled.begin(), filled.end(), 0);
    bool simple = true;
    for (std::size_t i = 0; simple && i < stubs; i += 2) {
      const NodeId u = deck[i];
      const NodeId v = deck[i + 1];
      NodeId& filled_u = filled[static_cast<std::size_t>(u)];
      simple = u != v &&
               std::find(row(u), row(u) + filled_u, v) == row(u) + filled_u;
      if (simple) {
        row(u)[filled_u++] = v;
        row(v)[filled[static_cast<std::size_t>(v)]++] = u;
      }
    }
    if (simple) {
      EdgeList edges;
      edges.reserve(stubs / 2);
      for (std::size_t i = 0; i < stubs; i += 2) {
        edges.emplace_back(deck[i], deck[i + 1]);
      }
      return CsrGraph::from_edges(n, edges);
    }
  }
  throw Error(cat("no simple ", d, "-regular pairing found for n = ", n,
                  " within ", kMaxRounds,
                  " rounds — rejection sampling needs d <= 5 (acceptance "
                  "falls like exp(-d*d/4))"));
}

int TreeIndex::level(NodeId v) {
  LOCALD_CHECK(v >= 0, "negative heap id");
  return std::bit_width(static_cast<std::uint64_t>(v) + 1) - 1;
}

std::int64_t TreeIndex::offset(NodeId v) {
  const int y = level(v);
  return static_cast<std::int64_t>(v) - ((1LL << y) - 1);
}

NodeId TreeIndex::id(int level, std::int64_t offset) {
  LOCALD_CHECK(level >= 0 && level < 31, "level out of range");
  LOCALD_CHECK(offset >= 0 && offset < (1LL << level),
               "offset outside the level");
  return static_cast<NodeId>((1LL << level) - 1 + offset);
}

}  // namespace locald::graph
