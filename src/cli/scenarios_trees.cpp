// Section 2 scenarios: the Figure-1 layered trees T_r and the r-cycle
// promise problem where identifiers leak n through the bound f.
#include <algorithm>

#include "cli/scenarios.h"
#include "local/indistinguishability.h"
#include "obs/stopwatch.h"
#include "local/property.h"
#include "local/simulator.h"
#include "support/rng.h"
#include "trees/audit.h"
#include "trees/construction.h"
#include "trees/decide.h"
#include "trees/promise_cycle.h"

namespace locald::cli {
namespace {

// Fig. 1 / Sec. 2: ball-coverage audit behind P ∉ LD* plus the LD decider.
// --size selects the largest r audited (default and max 3; the audit is
// exhaustive through r = 2 and sampled at r = 3). r = 4 is out of reach:
// R(4) = 32 exceeds the construction's R <= 24 tree-size guard.
bool run_fig1(const ScenarioOptions& opts, std::ostream& out) {
  const int max_r = std::clamp(opts.size == 0 ? 3 : opts.size, 1, 3);
  Rng rng(opts.seed);
  bool ok = true;

  std::vector<std::string> columns{"r", "R(r)", "|T_r|", "audited",
                                   "coverage", "subtree-cover",
                                   "canon-mismatch", "LD decider"};
  if (opts.timing) {
    columns.push_back("time(s)");
  }
  TextTable table(columns);
  for (int r = 1; r <= max_r; ++r) {
    const obs::Stopwatch stopwatch;
    trees::TreeParams p;
    p.r = r;
    p.f = local::IdBound::linear_plus(1);
    const auto R = p.capital_R();
    const std::uint64_t n = (std::uint64_t{1} << (R + 1)) - 1;

    const std::uint64_t sample = (r <= 2) ? 0 : 100'000;
    const std::uint64_t canon = (r >= 3) ? 100 : 50;
    const auto audit = trees::audit_tree_coverage(p, sample, canon, rng);

    const auto decider = trees::make_P_decider(p);
    const auto property = trees::property_P(p);
    std::vector<local::LabeledGraph> instances;
    instances.push_back(
        trees::build_patch_instance(p, trees::subtree_patch(p, 0, 0)));
    instances.push_back(trees::build_patch_instance(
        p, trees::subtree_patch(p, 1, std::min<trees::Coord>(2, R - r))));
    if (r <= 2) {
      instances.push_back(trees::build_T(p));
    }
    // Pool only, no cache: every ball's labels carry its T_r coordinates,
    // so no two balls are isomorphic and class-keying one costs more than
    // verifying it.
    const auto report = local::evaluate_decider(
        *decider, *property, instances, local::bounded_policy(p.f), 2, rng,
        {.exec = {.pool = opts.exec.pool}});

    // Full patch coverage is the documented expectation from r >= 3 (small
    // r lack room for every trapezoid patch); canonical checks and the LD
    // decider must be clean at every r.
    const bool row_ok = (r < 3 || audit.full_patch_coverage()) &&
                        audit.canonical_mismatch == 0 && report.all_correct();
    ok = ok && row_ok;
    const double secs = stopwatch.elapsed_seconds();
    std::vector<std::string> row{
        cat(r), cat(R), cat(n), cat(audit.nodes_audited),
        fixed(static_cast<double>(audit.patch_covered) / audit.nodes_audited,
              4),
        fixed(audit.subtree_fraction(), 4), cat(audit.canonical_mismatch),
        report.all_correct() ? "correct" : "WRONG"};
    if (opts.timing) {
      row.push_back(fixed(secs, 2));
    }
    table.add_row(std::move(row));
  }
  emit_table(out, opts, "Figure 1 / Section 2: T_r vs H_r", table);
  emit_note(out, opts,
            "coverage = 1.0 certifies: any Id-oblivious horizon-1 algorithm "
            "accepting all of H_r accepts T_r (P ∉ LD*); the LD decider "
            "stays correct with bounded identifiers.");
  return ok;
}

// Sec. 2 warm-up: r-cycle vs (f(r)+1)-cycle under f(n) = n^2 + 1. The
// id-based decider is exact; radius-1 balls are indistinguishable to any
// Id-oblivious algorithm. --size selects the largest r (default 12).
bool run_promise_cycle(const ScenarioOptions& opts, std::ostream& out) {
  const int max_r = std::clamp(opts.size == 0 ? 12 : opts.size, 4, 64);
  const int trials = opts.trials == 0 ? 5 : opts.trials;
  Rng rng(opts.seed);
  bool ok = true;

  TextTable table({"r", "yes n", "no n", "decider yes", "decider no",
                   "oblivious-indistinguishable"});
  for (int r = 4; r <= max_r; r += std::max(2, (max_r - 4) / 4)) {
    trees::PromiseCycleParams pc;
    pc.r = r;
    pc.f = local::IdBound::quadratic();
    const auto yes = trees::build_yes_cycle(pc);
    const auto no = trees::build_no_cycle(pc);
    const auto decider = trees::make_promise_cycle_decider(pc);
    bool yes_ok = true;
    bool no_ok = true;
    for (int trial = 0; trial < trials; ++trial) {
      yes_ok &= local::run_local_algorithm(
                    *decider, yes,
                    local::make_random_bounded(yes.node_count(), pc.f, rng),
                    {opts.exec})
                    .accepted;
      no_ok &= !local::run_local_algorithm(
                     *decider, no,
                     local::make_random_bounded(no.node_count(), pc.f, rng),
                     {opts.exec})
                     .accepted;
    }
    const auto profile = local::BallProfile::of_graph(yes, 1);
    const auto audit = local::audit_indistinguishability(no, profile);
    ok = ok && yes_ok && no_ok && audit.indistinguishable();
    table.add_row({cat(r), cat(yes.node_count()), cat(no.node_count()),
                   yes_ok ? "accept" : "WRONG", no_ok ? "reject" : "WRONG",
                   audit.indistinguishable() ? "yes" : "NO"});
  }
  emit_table(out, opts,
             "promise cycles (Section 2): r-cycle vs (f(r)+1)-cycle", table);
  emit_note(out, opts,
            "the id-based decider reads n off the identifier bound f; "
            "Id-oblivious algorithms see identical radius-1 balls on both "
            "instances and cannot distinguish them.");
  return ok;
}

}  // namespace

std::vector<Scenario> tree_scenarios() {
  return {
      {
          "fig1-layered-trees",
          "Fig. 1, Sec. 2",
          "layered trees T_r, coverage audit for P ∉ LD*, LD decider",
          "largest audited r (default and max 3)",
          "",
          run_fig1,
      },
      {
          "promise-cycle",
          "Sec. 2 warm-up",
          "r-cycle promise problem: identifiers leak n through f",
          "largest cycle parameter r (default 12)",
          "",
          run_promise_cycle,
      },
  };
}

}  // namespace locald::cli
