#include "trees/decide.h"

#include <algorithm>
#include <optional>
#include <set>

#include "support/format.h"

namespace locald::trees {

namespace {

using local::BallView;
using local::Verdict;

struct BallNode {
  graph::NodeId id = 0;
  bool is_pivot = false;
  CoordPair coords;
};

// Parses ball labels; nullopt on any malformed label or r mismatch.
std::optional<std::vector<BallNode>> parse_ball(const BallView& ball, int r,
                                                Coord R) {
  std::vector<BallNode> out;
  for (graph::NodeId v = 0; v < ball.node_count(); ++v) {
    const local::Label& l = ball.label(v);
    BallNode node;
    node.id = v;
    if (l.size() == 2 && l.at(0) == kPivotTag && l.at(1) == r) {
      node.is_pivot = true;
    } else if (l.size() == 4 && l.at(0) == kTreeTag && l.at(1) == r) {
      node.coords = {l.at(2), l.at(3)};
      if (node.coords.y < 0 || node.coords.y > R || node.coords.x < 0 ||
          node.coords.x >= (Coord{1} << node.coords.y)) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
    out.push_back(node);
  }
  return out;
}

// Edge <=> coordinate adjacency among all tree nodes of the ball, and
// distinct coordinates.
bool pair_rule_holds(const BallView& ball, const std::vector<BallNode>& nodes,
                     Coord R) {
  std::set<CoordPair> seen;
  for (const BallNode& n : nodes) {
    if (!n.is_pivot && !seen.insert(n.coords).second) {
      return false;
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i].is_pivot || nodes[j].is_pivot) {
        continue;
      }
      const bool edge = ball.g.has_edge(nodes[i].id, nodes[j].id);
      const bool adj = coords_adjacent(nodes[i].coords, nodes[j].coords, R);
      if (edge != adj) {
        return false;
      }
    }
  }
  return true;
}

// Candidate patches that could make `v` a border node with the observed
// presence pattern. Enumerates all (y0, bottom interval) combinations whose
// rows near v are constrained — O((r+1) * 4^r), fine for small r.
bool border_pattern_consistent(const TreeParams& p, Coord R,
                               const CoordPair& v,
                               const std::set<CoordPair>& present) {
  const Coord W = Coord{1} << p.r;
  const Coord lo = std::max<Coord>(0, v.y - p.r);
  const Coord hi = std::min<Coord>(v.y, R - p.r);
  for (Coord y0 = lo; y0 <= hi; ++y0) {
    const Coord bottom_level = y0 + p.r;
    const Coord level_size = Coord{1} << bottom_level;
    // v's descendants-interval pins the bottom window near
    // v.x << (bottom_level - v.y); scan all windows overlapping it.
    const Coord vx_lo = v.x << (bottom_level - v.y);
    for (Coord bL = std::max<Coord>(0, vx_lo - W + 1);
         bL <= std::min(vx_lo + W - 1, level_size - 1); ++bL) {
      for (Coord width = 1; width <= W; ++width) {
        const Coord bR = bL + width - 1;
        if (bR >= level_size) {
          break;
        }
        Patch h;
        h.r = p.r;
        h.y0 = y0;
        h.bottom_left = bL;
        h.bottom_right = bR;
        if (!h.valid(p) || !h.contains(v.x, v.y)) {
          continue;
        }
        if (!is_border(h, v.x, v.y, R)) {
          continue;
        }
        const auto inside = patch_neighbors(h, v.x, v.y, R);
        if (std::set<CoordPair>(inside.begin(), inside.end()) == present) {
          return true;
        }
      }
    }
  }
  return false;
}

Verdict check_tree_node(const TreeParams& p, Coord R, const BallView& ball,
                        const std::vector<BallNode>& nodes) {
  const BallNode& center = nodes[static_cast<std::size_t>(ball.center)];
  int pivot_neighbors = 0;
  std::set<CoordPair> present;
  for (const BallNode& n : nodes) {
    if (n.id == ball.center || !ball.g.has_edge(ball.center, n.id)) {
      continue;
    }
    if (n.is_pivot) {
      ++pivot_neighbors;
      continue;
    }
    // Neighbour coordinates must be T_r-adjacent to the centre (the pair
    // rule re-checks this; keep the set for the presence rule).
    present.insert(n.coords);
  }
  if (pivot_neighbors > 1) {
    return Verdict::no;
  }
  const auto all = tr_neighbors(center.coords.x, center.coords.y, R);
  const std::set<CoordPair> all_set(all.begin(), all.end());
  for (const CoordPair& c : present) {
    if (!all_set.contains(c)) {
      return Verdict::no;
    }
  }
  if (pivot_neighbors == 0) {
    // Interior or T_r node: the full T_r neighbourhood must be present.
    return present == all_set ? Verdict::yes : Verdict::no;
  }
  // Border node: some patch must explain exactly this presence pattern.
  return border_pattern_consistent(p, R, center.coords, present)
             ? Verdict::yes
             : Verdict::no;
}

Verdict check_pivot(const TreeParams& p, Coord R, const BallView& ball,
                    const std::vector<BallNode>& nodes) {
  const graph::NodeId center = ball.center;
  std::set<CoordPair> border_coords;
  Coord ymin = R + 1;
  for (const BallNode& n : nodes) {
    if (n.id == center) {
      continue;
    }
    if (!ball.g.has_edge(center, n.id)) {
      // Radius-1 pivot ball contains only neighbours; anything else means a
      // malformed extraction — reject defensively.
      return Verdict::no;
    }
    if (n.is_pivot) {
      return Verdict::no;  // pivots are never adjacent
    }
    border_coords.insert(n.coords);
    ymin = std::min(ymin, n.coords.y);
  }
  if (border_coords.empty()) {
    return Verdict::no;
  }
  // Reconstruct candidate patches: the border determines the bottom window.
  for (Coord y0 = std::max<Coord>(0, ymin - p.r);
       y0 <= std::min(ymin, R - p.r); ++y0) {
    const Coord bottom_level = y0 + p.r;
    std::vector<Coord> bottom_xs;
    for (const CoordPair& c : border_coords) {
      if (c.y == bottom_level) {
        bottom_xs.push_back(c.x);
      }
    }
    std::vector<Coord> bl_candidates{0};
    std::vector<Coord> br_candidates{(Coord{1} << bottom_level) - 1};
    for (Coord x : bottom_xs) {
      bl_candidates.push_back(x);
      br_candidates.push_back(x);
    }
    for (Coord bL : bl_candidates) {
      for (Coord bR : br_candidates) {
        if (bL > bR) {
          continue;
        }
        Patch h;
        h.r = p.r;
        h.y0 = y0;
        h.bottom_left = bL;
        h.bottom_right = bR;
        if (!h.valid(p)) {
          continue;
        }
        const auto expected = expected_border(h, R);
        if (std::set<CoordPair>(expected.begin(), expected.end()) ==
            border_coords) {
          return Verdict::yes;
        }
      }
    }
  }
  return Verdict::no;
}

}  // namespace

std::unique_ptr<local::LocalAlgorithm> make_P_prime_verifier(
    const TreeParams& p) {
  const Coord R = p.capital_R();
  // The name pins (r, f), which fix R(r): it keys the verdict cache.
  return local::make_oblivious(
      cat("verify-P'(r=", p.r, ",f=", p.f.name(), ")"), 1,
      [p, R](const BallView& ball) {
        const auto nodes = parse_ball(ball, p.r, R);
        if (!nodes.has_value()) {
          return Verdict::no;
        }
        if (!pair_rule_holds(ball, *nodes, R)) {
          return Verdict::no;
        }
        const BallNode& center =
            (*nodes)[static_cast<std::size_t>(ball.center)];
        return center.is_pivot ? check_pivot(p, R, ball, *nodes)
                               : check_tree_node(p, R, ball, *nodes);
      });
}

std::unique_ptr<local::LocalAlgorithm> make_P_decider(const TreeParams& p) {
  const Coord R = p.capital_R();
  return std::make_unique<local::GatedAlgorithm>(
      cat("decide-P(r=", p.r, ",f=", p.f.name(), ")"),
      make_P_prime_verifier(p), [R](const local::Label&, local::Id id) {
        // Identifier leak: an id of at least R(r) proves n > 2^{r+1}, i.e.
        // the instance cannot be a patch.
        return id >= static_cast<local::Id>(R) ? Verdict::no : Verdict::yes;
      });
}

}  // namespace locald::trees
