// The decision-theoretic side of Section 3: the LD decider, the
// neighbourhood generator B(N, r) (property P3), the separation algorithm R
// from the proof of Theorem 2, the candidate suite of computable
// Id-oblivious deciders it is run against, and the Corollary-1 randomized
// Id-oblivious decider.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "halting/gmr.h"
#include "halting/verifier.h"
#include "local/simulator.h"

namespace locald::halting {

// ---- LD side ---------------------------------------------------------------

// Id-aware decider for P = { G(M, r) : M outputs 0 } (Theorem 2, first
// half): gated on `verifier` (a make_gmr_verifier), it verifies the
// structure Id-obliviously, then simulates the machine decoded from the
// labels for Id(v) steps (capped at sim_cap; ids in our instances are far
// below the cap). Some node's id reaches M's runtime because G(M, r) has
// more nodes than M has steps. A panel holding both the verifier and the
// decider verifies each ball once.
std::unique_ptr<local::LocalAlgorithm> make_gmr_decider(
    std::shared_ptr<const local::LocalAlgorithm> verifier,
    long long sim_cap = 1'000'000);

// ---- neighbourhood generator B (property P3) --------------------------------

// Output of B(N, radius): a host graph whose eligible stripped balls are
// exactly what the separation algorithm feeds to a candidate decider.
// Total for EVERY machine N:
//  - if N halts within the step budget, the host is the genuine G(N, r)
//    and every node is eligible (exact = true);
//  - otherwise the host glues C(N, r) to a table prefix and the balls
//    touching the prefix's bottom rows are excluded (the paper's
//    "neighbourhoods that do not contain nodes from the bottom row").
struct GeneratedBalls {
  bool exact = false;
  local::LabeledGraph host;
  std::vector<graph::NodeId> centers;
};

GeneratedBalls neighborhood_generator(const GmrParams& params, int radius);

// ---- separation algorithm R (proof of Theorem 2) ----------------------------

// R(A*, N): accept iff A* accepts every ball of B(N, A*.horizon()).
// A correct Id-oblivious decider for P would make R a computable separator
// of L0/L1, contradicting Lemma 1 — so every computable candidate must
// misclassify some machine.
bool separation_accepts(const local::LocalAlgorithm& oblivious_candidate,
                        const GmrParams& params,
                        const local::RunOptions& options = {});

// ---- candidate suite ---------------------------------------------------------

// The structure verifier alone (ignores M's output entirely).
std::unique_ptr<local::LocalAlgorithm> candidate_structure_only(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget);

// Structure verifier plus a bounded simulation of the decoded machine for
// `sim_budget` steps; rejects on a non-0 halt within the budget. Fooled by
// any machine that outlasts the budget — the diagonalization harness
// constructs exactly those.
std::unique_ptr<local::LocalAlgorithm> candidate_bounded_simulation(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget, long long sim_budget);

// ---- diagonalization harness -------------------------------------------------

struct SeparationRow {
  std::string candidate;
  std::string machine;
  bool halts = false;
  int output = -1;        // when halts
  bool r_accepts = false; // verdict of the separator R built from candidate
  // R should accept exactly the L0 members among halting machines; a
  // mismatch on a halting machine is the predicted failure.
  bool misclassified = false;
};

// Runs R(candidate, N) for each machine against each candidate.
std::vector<SeparationRow> run_separation_experiment(
    const std::vector<std::pair<std::string,
                                std::unique_ptr<local::LocalAlgorithm>>>&
        candidates,
    const std::vector<tm::TuringMachine>& machines, int r, int fragment_size,
    tm::FragmentPolicy policy, bool pyramidal, long long step_budget,
    const local::RunOptions& options = {});

// ---- Corollary 1: randomness replaces identifiers ---------------------------

// Id-oblivious randomized decider: the G(M, r) verifier as the gate, then
// a tail in which each node draws n_v = 4^{tosses until heads} and
// simulates the decoded machine for n_v steps (capped). The Section-3.2
// decider with Id(v) replaced by the coin draw; a (1, 1 - o(1))-decider
// for P.
local::RandomizedGatedAlgorithm make_randomized_gmr_decider(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget, long long sim_cap = 1'000'000);

// The paper's analytic failure bound: (1 - 1/sqrt(n))^n.
double corollary1_failure_bound(double n);

}  // namespace locald::halting
