// The Section-2 construction: layered trees T_r and the small instances H+.
//
// T_r is the layered tree of depth R(r) = f(2^{r+1} + 1), each node labelled
// with its (r, x, y) coordinates. The yes-instances are depth-r fragments of
// T_r augmented with a pivot node adjacent to all border nodes (Figure 1).
//
// A note on the fragment family ("patches"). The paper writes H <= r T_r for
// induced subgraphs whose topology is a layered depth-r tree. Read literally
// that family contains exactly the *aligned* subtrees (every triangle of a
// layered tree is a parent-with-children triangle, which pins any induced
// copy to tree alignment) — and aligned subtrees do NOT cover the radius-t
// balls of nodes sitting on subtree alignment boundaries (e.g. the bottom
// node x = 2^r has its left level-neighbour in no aligned subtree that
// contains it off-border). We therefore implement the family that makes the
// paper's containment claim true: ancestor-closed trapezoidal windows
//
//   Patch(y0, [bL, bR]) = { (x, y0+j) : bL >> (r-j) <= x <= bR >> (r-j) },
//
// with bottom width at most 2^r (so instance sizes keep the paper's
// 2^{r+1} bound and R(r) is unchanged). Aligned subtrees are the special
// case bL = x0 * 2^r, bR = (x0+1) * 2^r - 1. The coverage experiment
// measures both readings.
#pragma once

#include <cstdint>
#include <vector>

#include "local/identifiers.h"
#include "local/labeled_graph.h"
#include "local/property.h"

namespace locald::trees {

using Coord = std::int64_t;

struct CoordPair {
  Coord x = 0;
  Coord y = 0;
  auto operator<=>(const CoordPair&) const = default;
};

// Label schema: tree node (kTreeTag, r, x, y); pivot (kPivotTag, r).
inline constexpr std::int64_t kTreeTag = 1;
inline constexpr std::int64_t kPivotTag = 2;

local::Label tree_label(int r, Coord x, Coord y);
local::Label pivot_label(int r);

struct TreeParams {
  int r = 3;
  local::IdBound f = local::IdBound::linear_plus(1);

  // Largest yes-instance size + 1. A patch row at relative level j is an
  // ancestor interval of the bottom window and can hold 2^j + 1 nodes, so a
  // patch has at most sum_j (2^j + 1) = 2^{r+1} + r nodes including the
  // pivot (one more than the paper's aligned-subtree bound 2^{r+1}).
  local::Id yes_size_bound() const {
    return (local::Id{1} << (r + 1)) + static_cast<local::Id>(r) + 1;
  }
  // R(r) = f(yes_size_bound), the paper's R(r) = f(2^{r+1} + 1) adjusted to
  // the trapezoid family.
  Coord capital_R() const;
};

// All T_r neighbours of (x, y): parent, children, level-predecessor and
// -successor, within the depth-R layered tree.
std::vector<CoordPair> tr_neighbors(Coord x, Coord y, Coord R);

// Are two coordinate pairs adjacent in T_r?
bool coords_adjacent(const CoordPair& a, const CoordPair& b, Coord R);

struct Patch {
  int r = 0;
  Coord y0 = 0;
  Coord bottom_left = 0;
  Coord bottom_right = 0;

  // Row interval at relative level j in [0, r].
  Coord left(int j) const { return bottom_left >> (r - j); }
  Coord right(int j) const { return bottom_right >> (r - j); }

  Coord width() const { return bottom_right - bottom_left + 1; }

  bool contains(Coord x, Coord y) const;

  // Structural validity against the parameters (bounds, width cap).
  bool valid(const TreeParams& p) const;

  auto operator<=>(const Patch&) const = default;
};

// The aligned depth-r subtree rooted at (x0, y0) as a patch.
Patch subtree_patch(const TreeParams& p, Coord x0, Coord y0);

// T_r-neighbours of (x, y) that lie inside the patch. (x, y) must be in it.
std::vector<CoordPair> patch_neighbors(const Patch& h, Coord x, Coord y,
                                       Coord R);

// Border node: has a T_r-neighbour outside the patch (equivalently,
// patch_neighbors != tr_neighbors).
bool is_border(const Patch& h, Coord x, Coord y, Coord R);

// All border coordinates, sorted.
std::vector<CoordPair> expected_border(const Patch& h, Coord R);

// ---- instance builders ----------------------------------------------------

// T_r itself (2^{R+1} - 1 nodes; R is capped to keep this materializable).
local::LabeledGraph build_T(const TreeParams& p);

// Patch + pivot adjacent to every border node. The pivot is the last node.
local::LabeledGraph build_patch_instance(const TreeParams& p, const Patch& h);

// A patch containing the closed radius-1 neighbourhood of (x, y) with
// (x, y) off the border — the witness used by the coverage audit. Exists
// for every node of T_r when r >= 2 (tries a closed-form placement first,
// then searches nearby bottom windows); nullopt when no patch covers the
// node (generic at r = 1, where every mid-tree patch node is a border node).
std::optional<Patch> witness_patch(const TreeParams& p, Coord x, Coord y);

// Is there an ALIGNED subtree witnessing (x, y) the same way? (The literal
// reading of the paper; fails on alignment boundaries.)
bool has_subtree_witness(const TreeParams& p, Coord x, Coord y);

// ---- oracles ---------------------------------------------------------------

bool is_T(const TreeParams& p, const local::LabeledGraph& g);
bool is_patch_instance(const TreeParams& p, const local::LabeledGraph& g);

// P  = { patch instances }           (the paper's "small" instances)
// P' = P union { T_r }               (locally verifiable superset)
std::unique_ptr<local::Property> property_P(const TreeParams& p);
std::unique_ptr<local::Property> property_P_prime(const TreeParams& p);

}  // namespace locald::trees
