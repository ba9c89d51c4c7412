#include "trees/audit.h"

#include <algorithm>

#include "graph/generators.h"
#include "local/ball.h"

namespace locald::trees {

namespace {

// Stripped radius-1 ball of the node with coordinates (x, y) in `g`.
local::Ball ball_of_coords(const local::LabeledGraph& g, int r, Coord x,
                           Coord y) {
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const local::Label& l = g.label(v);
    if (l.size() == 4 && l.at(0) == kTreeTag && l.at(1) == r &&
        l.at(2) == x && l.at(3) == y) {
      return extract_ball(g, nullptr, v, 1);
    }
  }
  LOCALD_ASSERT(false, "coordinates not found in instance");
  return {};
}

// Stripped radius-1 ball of node v of T_r, extracted from the induced
// subgraph on N[v] that the graph generator's adjacency defines. N[v] is
// all a radius-1 ball reads, so T_r itself (4.2M nodes at r = 3) is never
// built.
local::Ball ball_in_T(const TreeParams& p, int depth, graph::NodeId v) {
  std::vector<graph::NodeId> members = graph::layered_tree_neighbors(depth, v);
  members.insert(std::lower_bound(members.begin(), members.end(), v), v);
  const auto local_of = [&](graph::NodeId host) {
    const auto it = std::lower_bound(members.begin(), members.end(), host);
    return it != members.end() && *it == host
               ? static_cast<graph::NodeId>(it - members.begin())
               : graph::NodeId{-1};
  };
  graph::EdgeList edges;
  std::vector<local::Label> labels;
  for (graph::NodeId a = 0; a < static_cast<graph::NodeId>(members.size());
       ++a) {
    const graph::NodeId host = members[static_cast<std::size_t>(a)];
    for (graph::NodeId w : graph::layered_tree_neighbors(depth, host)) {
      const graph::NodeId b = local_of(w);
      if (a < b) {
        edges.emplace_back(a, b);
      }
    }
    labels.push_back(tree_label(p.r, graph::TreeIndex::offset(host),
                                graph::TreeIndex::level(host)));
  }
  const local::LabeledGraph closed_neighborhood(
      graph::CsrGraph::from_edges(static_cast<graph::NodeId>(members.size()),
                                  edges),
      std::move(labels));
  return extract_ball(closed_neighborhood, nullptr, local_of(v), 1);
}

}  // namespace

TreeAuditResult audit_tree_coverage(const TreeParams& p,
                                    std::uint64_t max_nodes,
                                    std::uint64_t canonical_sample,
                                    Rng& rng) {
  const Coord R = p.capital_R();
  const std::uint64_t n = (std::uint64_t{1} << (R + 1)) - 1;
  const bool exhaustive = max_nodes == 0 || max_nodes >= n;
  const std::uint64_t count = exhaustive ? n : max_nodes;

  TreeAuditResult result;
  for (std::uint64_t i = 0; i < count; ++i) {
    const graph::NodeId v = static_cast<graph::NodeId>(
        exhaustive ? i : rng.below(n));
    const Coord y = graph::TreeIndex::level(v);
    const Coord x = graph::TreeIndex::offset(v);
    ++result.nodes_audited;

    const std::optional<Patch> witness = witness_patch(p, x, y);
    const bool contained = witness.has_value() && witness->contains(x, y) &&
                           !is_border(*witness, x, y, R);
    if (contained) {
      ++result.patch_covered;
    }
    if (has_subtree_witness(p, x, y)) {
      ++result.subtree_covered;
    }

    if (contained && result.canonical_checked < canonical_sample) {
      ++result.canonical_checked;
      const local::Ball in_T = ball_in_T(p, static_cast<int>(R), v);
      const local::LabeledGraph instance =
          build_patch_instance(p, *witness);
      const local::Ball in_H = ball_of_coords(instance, p.r, x, y);
      if (in_T.canonical_encoding() != in_H.canonical_encoding()) {
        ++result.canonical_mismatch;
      }
    }
  }
  return result;
}

}  // namespace locald::trees
