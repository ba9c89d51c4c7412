// The family workload: one deterministic measurement cell shared by the
// `family-workload` scenario and the `locald bench` grid runner.
//
// Given a resolved family instance, the workload
//  1. builds the graph from (canonical parameters, seed),
//  2. checks every invariant the family declares (node/edge counts, degree
//     bound, connectivity, bipartiteness) against the built instance,
//  3. censuses the radius-1 ball classes exactly on the two-tier
//     canonicalization engine (graph/isomorphism.h): centre-marked
//     canonical forms — the unit the verdict cache memoizes on — with
//     byte-identical extracted balls deduplicated before any search and
//     orbit pruning keeping even pathologically symmetric balls cheap, so
//     every family reports exact isomorphism-class counts, and
//  4. evaluates a fixed panel of Id-oblivious horizon-1 algorithms once
//     per distinct ball class on the execution engine and scatters the
//     per-class verdicts over the class members — byte-identical to
//     evaluating every node, at one evaluation per (algorithm, class).
//
// Everything in `WorkloadResult` is a pure function of (family spec, seed):
// verdict counts come from the engine's deterministic per-node outputs, and
// `memo_hits` is the *serial-equivalent* memoization hit count — panel
// evaluations minus distinct classes — rather than the scheduling-dependent
// atomic counters of a live VerdictCache (those stay behind `--timing`,
// like everywhere else in locald). This is what lets `locald bench` gate
// byte-identity between `--threads 1` and `--threads N` on real fields.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/context.h"
#include "gen/family.h"
#include "local/event_engine.h"

namespace locald::gen {

struct WorkloadOptions {
  std::uint64_t seed = 42;
};

struct PanelVerdict {
  std::string algorithm;
  std::int64_t yes_nodes = 0;  // nodes outputting yes
  bool accepted = false;       // the paper's rule: yes everywhere

  bool operator==(const PanelVerdict&) const = default;
};

struct WorkloadResult {
  std::string family;  // canonical parameter encoding
  std::int64_t nodes = 0;
  std::int64_t edges = 0;
  std::int64_t max_degree = 0;
  // Declared-invariant audit; failures name the violated declaration.
  bool invariants_ok = false;
  std::vector<std::string> invariant_failures;
  // Distinct stripped radius-1 ball classes, and the serial-equivalent
  // memo hit count: panel evaluations minus classes decided once.
  std::int64_t ball_classes = 0;
  std::int64_t memo_hits = 0;
  std::vector<PanelVerdict> panel;

  bool ok() const { return invariants_ok; }
  // Every field is deterministic, so equality is bench's cross-thread check.
  bool operator==(const WorkloadResult&) const = default;
};

// Names of the fixed oblivious panel, in evaluation order.
const std::vector<std::string>& workload_panel_names();

// Runs the cell. Deterministic at every `exec` thread count.
WorkloadResult run_family_workload(const FamilyInstanceSpec& spec,
                                   const WorkloadOptions& opts,
                                   const exec::ExecContext& exec);

// --- Fault robustness -------------------------------------------------------
//
// The event-engine robustness pass shared by the `fault-robustness`
// scenario and `locald bench --faults`. The clean truth is direct ball
// evaluation of every panel algorithm — by the paper's section 1.2
// equivalence, the clean synchronous verdict. Then one event-engine flood
// under the `none` control profile and one under `profile` each decide the
// whole panel (the gathered knowledge does not depend on the algorithm).
// Every field is a pure function of (family spec, profile, seed) — the
// event engine's schedule is seeded, so the whole result may appear in
// byte-gated documents.

struct FaultPanelRow {
  std::string algorithm;
  std::int64_t sync_yes = 0;       // direct-evaluation yes-nodes (the truth)
  std::int64_t faulty_yes = 0;     // event engine under `profile`
  std::int64_t agree_nodes = 0;    // nodes where faulty == truth, per node
  // The `none`-profile flood reproduced direct evaluation verbatim — the
  // equivalence the engine promises; any false here is an engine bug, not a
  // property of the profile.
  bool control_identical = false;

  bool operator==(const FaultPanelRow&) const = default;
};

struct FaultRobustnessResult {
  std::string family;   // canonical family encoding
  std::string profile;  // canonical profile encoding
  std::int64_t nodes = 0;
  std::vector<FaultPanelRow> panel;
  // The faulty flood's deterministic schedule statistics. One flood decides
  // every row, so one stats block covers them all.
  local::EventStats stats;

  bool ok() const {
    for (const FaultPanelRow& row : panel) {
      if (!row.control_identical) return false;
    }
    return true;
  }
  bool operator==(const FaultRobustnessResult&) const = default;
};

// Runs the pass. Deterministic at every `exec` thread count (the control
// and faulty floods fan out across the pool; each is a pure function).
FaultRobustnessResult run_fault_robustness(
    const FamilyInstanceSpec& spec, const WorkloadOptions& opts,
    const local::FaultProfileInstance& profile, const exec::ExecContext& exec);

}  // namespace locald::gen
