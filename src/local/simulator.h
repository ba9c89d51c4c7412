// Running a local algorithm on an input (G, x, Id).
//
// Global acceptance follows the paper's local-decision rule: accept iff
// every node outputs yes; a single no rejects.
//
// Every entry point takes a `RunOptions` describing HOW to execute —
// threading, memoization, random seed — separated from WHAT to run (the
// algorithm and instance positional arguments). The default-constructed
// options mean: serial, uncached, seed 0. Results are bit-identical across
// thread counts for fixed options: every node writes its own output slot
// and reductions happen in node order afterwards; randomized entry points
// draw every (trial, node) cell from a counter-based stream keyed by
// `options.seed`, never from shared sequential generator state.
#pragma once

#include <optional>
#include <vector>

#include "exec/context.h"
#include "local/algorithm.h"
#include "local/labeled_graph.h"

namespace locald::local {

// Execution options shared by every simulator entry point.
struct RunOptions {
  // Thread pool + verdict cache; ExecContext{} = serial and uncached.
  // Memoization requires the algorithm's verdict to be a pure function of
  // the ball's canonical class (see exec/verdict_cache.h).
  exec::ExecContext exec;
  // Base of the counter streams used by the randomized entry points
  // (probe_id_dependence, estimate_acceptance); ignored by the
  // deterministic ones.
  std::uint64_t seed = 0;
  // Visibility radius override; unset means the algorithm's own horizon().
  // The explicit default lets callers brace-initialize the leading members
  // alone without a missing-initializer warning.
  std::optional<int> radius = std::nullopt;
};

struct RunResult {
  std::vector<Verdict> outputs;
  bool accepted = true;
  std::optional<graph::NodeId> first_rejecting;
};

// The direct-evaluation node loop: evaluates every algorithm of `algs` on
// every node, extracting each node's ball at most once (carrying
// identifiers iff some algorithm is id-aware; `ids` may be null only if
// none is). The algorithms share one horizon, and `options.radius`
// overrides it for all.
//  - An Id-oblivious algorithm with a bulk path (LocalAlgorithm::
//    evaluate_all) run at its own horizon decides every node at once,
//    with no extraction and no cache lookup.
//  - Other Id-oblivious algorithms see the stripped ball, through the
//    verdict cache when one is wired up.
//  - A GatedAlgorithm's gate is decided the same way, once per node, even
//    when the gate itself or other algorithms gated on it are in the panel;
//    its id-dependent tail runs on the centre's label and id only, and
//    only where the gate said yes.
//  - Other id-aware algorithms see the full ball, uncached: a ball keyed
//    with its identifiers almost never recurs.
// A node's ball is extracted only if some step of the third or fourth
// kind needs it.
// results[a] is exactly what a one-algorithm panel of algs[a] returns.
std::vector<RunResult> run_panel(const std::vector<const LocalAlgorithm*>& algs,
                                 const LabeledGraph& g, const IdAssignment* ids,
                                 const RunOptions& options = {});

// One-algorithm panels. run_oblivious needs no identifier assignment and
// accepts only Id-oblivious algorithms.
RunResult run_local_algorithm(const LocalAlgorithm& alg, const LabeledGraph& g,
                              const IdAssignment& ids,
                              const RunOptions& options = {});
RunResult run_oblivious(const LocalAlgorithm& alg, const LabeledGraph& g,
                        const RunOptions& options = {});

// Empirical probe of assumption-dependence: evaluates the algorithm under
// `trials` random id assignments drawn from [0, universe) and reports
// whether any PER-NODE output differed between two assignments. A truly
// Id-oblivious algorithm never differs; the Section-2/3 deciders must.
// Trial t draws its assignment from the counter-based stream
// (options.seed, t), so the probe is a pure function of (instance, seed).
struct IdDependenceProbe {
  bool global_verdict_changed = false;
  bool some_node_output_changed = false;
  int trials = 0;
};

IdDependenceProbe probe_id_dependence(const LocalAlgorithm& alg,
                                      const LabeledGraph& g, Id universe,
                                      int trials,
                                      const RunOptions& options = {});

// Monte-Carlo estimate of Pr[accept].
struct AcceptanceEstimate {
  int trials = 0;
  int accepted = 0;
  // Pr[accept] over the trials that ran. A zero-trial estimate has no
  // probability — returning 0.0 would silently conflate "never accepted"
  // with "never ran" — so asking for one is a checked error.
  double probability() const {
    LOCALD_CHECK(trials > 0,
                 "acceptance estimate over zero trials has no probability");
    return static_cast<double>(accepted) / trials;
  }
};

// The gate reads no coins, so it is decided once, by run_oblivious (in bulk
// when the gate offers evaluate_all): if it says no at any node, every trial
// rejects. Otherwise trial t accepts iff every node's tail says yes, node
// v's coins in trial t coming from the counter-based stream
// (options.seed, t, v), so every (trial, node) cell is the same generator
// no matter which thread runs it. No ball is extracted for the tails.
AcceptanceEstimate estimate_acceptance(const RandomizedGatedAlgorithm& alg,
                                       const LabeledGraph& g, int trials,
                                       const RunOptions& options = {});

}  // namespace locald::local
