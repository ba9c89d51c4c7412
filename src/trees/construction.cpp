#include "trees/construction.h"

#include <algorithm>
#include <map>
#include <set>

#include "graph/generators.h"
#include "support/format.h"

namespace locald::trees {

local::Label tree_label(int r, Coord x, Coord y) {
  return local::Label{kTreeTag, r, x, y};
}

local::Label pivot_label(int r) {
  return local::Label{kPivotTag, r};
}

Coord TreeParams::capital_R() const {
  LOCALD_CHECK(r >= 1, "Section 2 needs r >= 1");
  LOCALD_CHECK(r <= 20, "r out of supported range");
  const local::Id R = f(yes_size_bound());
  LOCALD_CHECK(R > static_cast<local::Id>(r), "id bound too weak: R(r) <= r");
  LOCALD_CHECK(R <= 40, "R(r) too large for coordinate arithmetic");
  return static_cast<Coord>(R);
}

std::vector<CoordPair> tr_neighbors(Coord x, Coord y, Coord R) {
  LOCALD_CHECK(y >= 0 && y <= R && x >= 0 && x < (Coord{1} << y),
               "coordinates outside T_r");
  std::vector<CoordPair> out;
  if (y > 0) {
    out.push_back({x >> 1, y - 1});
  }
  if (y < R) {
    out.push_back({2 * x, y + 1});
    out.push_back({2 * x + 1, y + 1});
  }
  if (x > 0) {
    out.push_back({x - 1, y});
  }
  if (x < (Coord{1} << y) - 1) {
    out.push_back({x + 1, y});
  }
  return out;
}

bool coords_adjacent(const CoordPair& a, const CoordPair& b, Coord R) {
  if (a == b) {
    return false;
  }
  const auto in_range = [R](const CoordPair& c) {
    return c.y >= 0 && c.y <= R && c.x >= 0 && c.x < (Coord{1} << c.y);
  };
  if (!in_range(a) || !in_range(b)) {
    return false;
  }
  if (a.y == b.y) {
    return std::abs(a.x - b.x) == 1;  // level path
  }
  const CoordPair& up = a.y < b.y ? a : b;
  const CoordPair& down = a.y < b.y ? b : a;
  return down.y == up.y + 1 && (down.x >> 1) == up.x;  // tree edge
}

bool Patch::contains(Coord x, Coord y) const {
  if (y < y0 || y > y0 + r) {
    return false;
  }
  const int j = static_cast<int>(y - y0);
  return x >= left(j) && x <= right(j);
}

bool Patch::valid(const TreeParams& p) const {
  if (r != p.r || y0 < 0) {
    return false;
  }
  const Coord R = p.capital_R();
  if (y0 + r > R) {
    return false;
  }
  if (bottom_left < 0 || bottom_left > bottom_right ||
      bottom_right >= (Coord{1} << (y0 + r))) {
    return false;
  }
  return width() <= (Coord{1} << r);
}

Patch subtree_patch(const TreeParams& p, Coord x0, Coord y0) {
  Patch h;
  h.r = p.r;
  h.y0 = y0;
  h.bottom_left = x0 << p.r;
  h.bottom_right = ((x0 + 1) << p.r) - 1;
  LOCALD_CHECK(h.valid(p), "invalid subtree root");
  return h;
}

std::vector<CoordPair> patch_neighbors(const Patch& h, Coord x, Coord y,
                                       Coord R) {
  LOCALD_CHECK(h.contains(x, y), "node outside the patch");
  std::vector<CoordPair> out;
  for (const CoordPair& c : tr_neighbors(x, y, R)) {
    if (h.contains(c.x, c.y)) {
      out.push_back(c);
    }
  }
  return out;
}

bool is_border(const Patch& h, Coord x, Coord y, Coord R) {
  return patch_neighbors(h, x, y, R).size() != tr_neighbors(x, y, R).size();
}

std::vector<CoordPair> expected_border(const Patch& h, Coord R) {
  std::vector<CoordPair> out;
  for (int j = 0; j <= h.r; ++j) {
    const Coord y = h.y0 + j;
    for (Coord x = h.left(j); x <= h.right(j); ++x) {
      if (is_border(h, x, y, R)) {
        out.push_back({x, y});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

local::LabeledGraph build_T(const TreeParams& p) {
  const Coord R = p.capital_R();
  LOCALD_CHECK(R <= 24, "T_r too large to materialize (R > 24)");
  graph::CsrGraph g = graph::make_layered_tree(static_cast<int>(R));
  local::LabeledGraph out(std::move(g));
  for (graph::NodeId v = 0; v < out.node_count(); ++v) {
    const int y = graph::TreeIndex::level(v);
    const Coord x = graph::TreeIndex::offset(v);
    out.set_label(v, tree_label(p.r, x, y));
  }
  return out;
}

local::LabeledGraph build_patch_instance(const TreeParams& p, const Patch& h) {
  LOCALD_CHECK(h.valid(p), "invalid patch");
  const Coord R = p.capital_R();
  // Node ids are dense in creation order: the next id is labels.size().
  std::map<CoordPair, graph::NodeId> index;
  graph::EdgeList edges;
  std::vector<local::Label> labels;
  for (int j = 0; j <= h.r; ++j) {
    const Coord y = h.y0 + j;
    for (Coord x = h.left(j); x <= h.right(j); ++x) {
      index[{x, y}] = static_cast<graph::NodeId>(labels.size());
      labels.push_back(tree_label(p.r, x, y));
    }
  }
  for (const auto& [coords, v] : index) {
    for (const CoordPair& c : patch_neighbors(h, coords.x, coords.y, R)) {
      const auto it = index.find(c);
      LOCALD_ASSERT(it != index.end(), "patch neighbour not indexed");
      if (v < it->second) {
        edges.emplace_back(v, it->second);
      }
    }
  }
  const auto pivot = static_cast<graph::NodeId>(labels.size());
  labels.push_back(pivot_label(p.r));
  const auto border = expected_border(h, R);
  LOCALD_CHECK(!border.empty(),
               "patch has no border: the pivot would be disconnected");
  for (const CoordPair& c : border) {
    edges.emplace_back(pivot, index.at(c));
  }
  const auto n = static_cast<graph::NodeId>(labels.size());
  return local::LabeledGraph(graph::CsrGraph::from_edges(n, edges),
                             std::move(labels));
}

std::optional<Patch> witness_patch(const TreeParams& p, Coord x, Coord y) {
  const Coord R = p.capital_R();
  LOCALD_CHECK(y >= 0 && y <= R && x >= 0 && x < (Coord{1} << y),
               "coordinates outside T_r");
  // Closed form: place (x, y) at relative level j — shallow nodes in the
  // full-width top patch, generic nodes two levels below the patch top,
  // deep nodes pinned by the bottom hitting R.
  const Coord depth_in = std::min<Coord>(2, p.r);
  const Coord y0_formula = std::clamp<Coord>(y - depth_in, 0, R - p.r);
  {
    const int j = static_cast<int>(y - y0_formula);
    if (j <= p.r) {
      const Coord row_width = Coord{1} << j;
      const Coord row_left =
          std::clamp<Coord>(x - (row_width / 2 - (j > 0 ? 1 : 0)), 0,
                            (Coord{1} << y) - row_width);
      Patch h;
      h.r = p.r;
      h.y0 = y0_formula;
      h.bottom_left = row_left << (p.r - j);
      h.bottom_right = ((row_left + row_width - 1) << (p.r - j)) +
                       ((Coord{1} << (p.r - j)) - 1);
      if (h.valid(p) && h.contains(x, y) && !is_border(h, x, y, R)) {
        return h;
      }
    }
  }
  // Fallback: search bottom windows around the node's descendant interval
  // (covers unaligned placements, e.g. relative level 1 at r = 2).
  const Coord W = Coord{1} << p.r;
  const Coord lo = std::max<Coord>(0, y - p.r);
  const Coord hi = std::min<Coord>(y, R - p.r);
  for (Coord y0 = hi; y0 >= lo; --y0) {
    const Coord bottom_level = y0 + p.r;
    const Coord level_size = Coord{1} << bottom_level;
    const Coord vx_lo = x << (bottom_level - y);
    for (Coord bL = std::max<Coord>(0, vx_lo - W + 1);
         bL <= std::min(vx_lo + W - 1, level_size - 1); ++bL) {
      for (Coord width = W; width >= 1; --width) {
        const Coord bR = bL + width - 1;
        if (bR >= level_size) {
          continue;
        }
        Patch h;
        h.r = p.r;
        h.y0 = y0;
        h.bottom_left = bL;
        h.bottom_right = bR;
        if (h.valid(p) && h.contains(x, y) && !is_border(h, x, y, R)) {
          return h;
        }
      }
    }
  }
  return std::nullopt;
}

bool has_subtree_witness(const TreeParams& p, Coord x, Coord y) {
  const Coord R = p.capital_R();
  const Coord lo = std::max<Coord>(0, y - p.r);
  const Coord hi = std::min<Coord>(y, R - p.r);
  for (Coord y0 = lo; y0 <= hi; ++y0) {
    const Patch h = subtree_patch(p, x >> (y - y0), y0);
    if (!is_border(h, x, y, R)) {
      return true;
    }
  }
  return false;
}

namespace {

struct ParsedLabels {
  std::map<CoordPair, graph::NodeId> tree_nodes;
  std::vector<graph::NodeId> pivots;
  bool ok = false;
};

ParsedLabels parse_labels(const TreeParams& p, const local::LabeledGraph& g,
                          Coord R) {
  ParsedLabels out;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const local::Label& l = g.label(v);
    if (l.size() == 2 && l.at(0) == kPivotTag && l.at(1) == p.r) {
      out.pivots.push_back(v);
      continue;
    }
    if (l.size() != 4 || l.at(0) != kTreeTag || l.at(1) != p.r) {
      return out;
    }
    const Coord x = l.at(2);
    const Coord y = l.at(3);
    if (y < 0 || y > R || x < 0 || x >= (Coord{1} << y)) {
      return out;
    }
    if (!out.tree_nodes.emplace(CoordPair{x, y}, v).second) {
      return out;  // duplicate coordinates
    }
  }
  out.ok = true;
  return out;
}

// Do the graph's edges agree exactly with coordinate adjacency (plus the
// given pivot adjacency)?
bool edges_match(const local::LabeledGraph& g,
                 const std::set<std::pair<graph::NodeId, graph::NodeId>>&
                     pivot_edges,
                 Coord R, std::size_t expected_adjacent_pairs) {
  std::size_t adjacent_pairs = 0;
  for (const auto& [u, v] : g.graph().edges()) {
    const auto key = std::minmax(u, v);
    if (pivot_edges.contains({key.first, key.second})) {
      continue;
    }
    const local::Label& lu = g.label(u);
    const local::Label& lv = g.label(v);
    if (lu.size() != 4 || lv.size() != 4) {
      return false;  // pivot edge not accounted for
    }
    if (!coords_adjacent({lu.at(2), lu.at(3)}, {lv.at(2), lv.at(3)}, R)) {
      return false;
    }
    ++adjacent_pairs;
  }
  return adjacent_pairs == expected_adjacent_pairs;
}

// Number of T_r-adjacent pairs among a coordinate set.
std::size_t count_adjacent_pairs(const std::map<CoordPair, graph::NodeId>& s,
                                 Coord R) {
  std::size_t count = 0;
  for (const auto& [c, v] : s) {
    for (const CoordPair& n : tr_neighbors(c.x, c.y, R)) {
      if (n < c && s.contains(n)) {
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

bool is_T(const TreeParams& p, const local::LabeledGraph& g) {
  const Coord R = p.capital_R();
  const std::int64_t expected_n = (std::int64_t{1} << (R + 1)) - 1;
  if (g.node_count() != expected_n) {
    return false;
  }
  const ParsedLabels parsed = parse_labels(p, g, R);
  if (!parsed.ok || !parsed.pivots.empty()) {
    return false;
  }
  if (static_cast<std::int64_t>(parsed.tree_nodes.size()) != expected_n) {
    return false;
  }
  // Coordinates form the full tree by counting: distinct, in range, and
  // exactly 2^{R+1} - 1 of them.
  return edges_match(g, {}, R,
                     count_adjacent_pairs(parsed.tree_nodes, R));
}

bool is_patch_instance(const TreeParams& p, const local::LabeledGraph& g) {
  const Coord R = p.capital_R();
  const ParsedLabels parsed = parse_labels(p, g, R);
  if (!parsed.ok || parsed.pivots.size() != 1 || parsed.tree_nodes.empty()) {
    return false;
  }
  // Infer the patch from the coordinate set.
  const Coord y0 = parsed.tree_nodes.begin()->first.y;
  Coord ymax = y0;
  for (const auto& [c, v] : parsed.tree_nodes) {
    ymax = std::max(ymax, c.y);
  }
  if (ymax - y0 != p.r) {
    return false;
  }
  std::map<Coord, std::pair<Coord, Coord>> row;  // level -> [min, max]
  std::map<Coord, std::int64_t> row_count;
  for (const auto& [c, v] : parsed.tree_nodes) {
    auto [it, fresh] = row.emplace(c.y, std::pair{c.x, c.x});
    if (!fresh) {
      it->second.first = std::min(it->second.first, c.x);
      it->second.second = std::max(it->second.second, c.x);
    }
    ++row_count[c.y];
  }
  Patch h;
  h.r = p.r;
  h.y0 = y0;
  const auto bottom = row.find(y0 + p.r);
  if (bottom == row.end()) {
    return false;
  }
  h.bottom_left = bottom->second.first;
  h.bottom_right = bottom->second.second;
  if (!h.valid(p)) {
    return false;
  }
  // Every level must be the exact ancestor interval (contiguous rows are
  // implied by matching counts and min/max).
  for (int j = 0; j <= p.r; ++j) {
    const Coord y = y0 + j;
    const auto it = row.find(y);
    if (it == row.end() || it->second.first != h.left(j) ||
        it->second.second != h.right(j) ||
        row_count[y] != h.right(j) - h.left(j) + 1) {
      return false;
    }
  }
  // Pivot adjacency must be exactly the border.
  const graph::NodeId pivot = parsed.pivots[0];
  std::set<std::pair<graph::NodeId, graph::NodeId>> pivot_edges;
  std::set<CoordPair> pivot_coords;
  for (graph::NodeId w : g.graph().neighbors(pivot)) {
    const local::Label& l = g.label(w);
    if (l.size() != 4) {
      return false;  // pivot adjacent to another pivot
    }
    pivot_coords.insert({l.at(2), l.at(3)});
    const auto key = std::minmax(pivot, w);
    pivot_edges.insert({key.first, key.second});
  }
  const auto border = expected_border(h, R);
  if (pivot_coords != std::set<CoordPair>(border.begin(), border.end())) {
    return false;
  }
  return edges_match(g, pivot_edges, R,
                     count_adjacent_pairs(parsed.tree_nodes, R));
}

std::unique_ptr<local::Property> property_P(const TreeParams& p) {
  return std::make_unique<local::LambdaProperty>(
      cat("sec2-P(r=", p.r, ",f=", p.f.name(), ")"),
      [p](const local::LabeledGraph& g) { return is_patch_instance(p, g); });
}

std::unique_ptr<local::Property> property_P_prime(const TreeParams& p) {
  return std::make_unique<local::LambdaProperty>(
      cat("sec2-P'(r=", p.r, ",f=", p.f.name(), ")"),
      [p](const local::LabeledGraph& g) {
        return is_patch_instance(p, g) || is_T(p, g);
      });
}

}  // namespace locald::trees
