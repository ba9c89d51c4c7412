// The Figure-1 indistinguishability experiment.
//
// For every (or a sampled subset of) node v of T_r the audit exhibits a
// yes-instance H+ whose corresponding node has the identical stripped
// radius-1 ball — the containment "every t-neighbourhood of T_r is found in
// one of the yes-instances" behind P not in LD*. Containment is established
// combinatorially (the witness patch contains N[v] with v off-border, and
// patches are induced, so the balls agree by construction) and re-verified
// on request by comparing canonical ball encodings against the actually
// built instance. The T_r side of that comparison is read off the graph
// generator's adjacency (graph::layered_tree_neighbors) one closed
// neighbourhood N[v] at a time; T_r itself is never materialized.
//
// The audit also reports how many nodes admit an ALIGNED-SUBTREE witness:
// under the literal reading of the paper's H <= r T_r this is strictly less
// than all of them (alignment boundaries fail), which is the reproduction
// finding documented in docs/ARCHITECTURE.md.
#pragma once

#include "support/rng.h"
#include "trees/construction.h"

namespace locald::trees {

struct TreeAuditResult {
  std::uint64_t nodes_audited = 0;
  std::uint64_t patch_covered = 0;     // witness patch found (expected: all)
  std::uint64_t subtree_covered = 0;   // aligned-subtree witness exists
  std::uint64_t canonical_checked = 0; // balls compared byte-for-byte
  std::uint64_t canonical_mismatch = 0;

  bool full_patch_coverage() const {
    return patch_covered == nodes_audited;
  }
  double subtree_fraction() const {
    return nodes_audited == 0
               ? 0.0
               : static_cast<double>(subtree_covered) / nodes_audited;
  }
};

// Audits up to `max_nodes` nodes of T_r (all nodes if max_nodes == 0 or
// >= |T_r|; otherwise a seeded uniform sample). `canonical_sample` nodes
// additionally get the full canonical-ball comparison against the built
// witness instance.
TreeAuditResult audit_tree_coverage(const TreeParams& p,
                                    std::uint64_t max_nodes,
                                    std::uint64_t canonical_sample, Rng& rng);

}  // namespace locald::trees
