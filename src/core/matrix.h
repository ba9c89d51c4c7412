// The paper's Section-1.1 table: LD* vs LD under the four combinations of
// (B)/(¬B) and (C)/(¬C), evaluated empirically from the constructions.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exec/context.h"
#include "graph/csr.h"

namespace locald::core {

// Supplies instance `index` for the (¬B, ¬C) A*-agreement experiment; the
// workload generator's families plug in here (cli wires `--family` to a
// gen::FamilyInstanceSpec). Null = the built-in random connected instances.
using InstanceSource = std::function<graph::CsrGraph(int index)>;

struct QuadrantResult {
  std::string quadrant;   // e.g. "(B, C)"
  bool separated = false; // LD* != LD demonstrated
  bool equal = false;     // LD* = LD demonstrated (¬B, ¬C)
  std::string witness;    // which construction/experiment supplied evidence
  std::string evidence;   // one-line measured summary
};

// Runs the four quadrant experiments at laptop scale:
//  (B, ¬C)  — the Section-2 layered-tree construction;
//  (B, C)   — same witness (a fortiori);
//  (¬B, C)  — the Section-3 G(M, r) construction + diagonalization;
//  (¬B, ¬C) — the Id-oblivious simulation A* reproduces an id-reading
//             decider exactly.
// `ctx` parallelizes the A* quadrant (node loop, assignment search, ball
// memoization); the verdicts are identical at every thread count.
// `a_star_instances` scales the (¬B, ¬C) agreement experiment — how many
// random instances A* is compared against the global oracle on (0 = the
// default of 12); `instances` overrides where those instances come from.
std::vector<QuadrantResult> evaluate_separation_matrix(
    std::uint64_t seed, const exec::ExecContext& ctx = {},
    int a_star_instances = 0, const InstanceSource& instances = nullptr);

}  // namespace locald::core
