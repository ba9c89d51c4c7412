#include "halting/analysis.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/trace.h"
#include "support/format.h"
#include "tm/run.h"

namespace locald::halting {

namespace {

using local::BallView;
using local::Verdict;

// Decodes the machine named in a centre's label; nullopt on garbage.
std::optional<tm::TuringMachine> machine_of(const local::Label& center) {
  const auto decoded = decode_label(center);
  if (!decoded.has_value()) {
    return std::nullopt;
  }
  try {
    return tm::TuringMachine::decode(decoded->machine_encoding);
  } catch (const Error&) {
    return std::nullopt;
  }
}

// The simulation every decider here runs on the centre alone: no if the
// machine named in `center` does not decode or halts within `budget` steps
// with a non-0 output, yes otherwise.
Verdict simulate_center(const local::Label& center, long long budget) {
  const auto m = machine_of(center);
  if (!m.has_value()) {
    return Verdict::no;
  }
  const tm::RunOutcome run = tm::run_machine(*m, budget);
  return run.halted && run.output != 0 ? Verdict::no : Verdict::yes;
}

// Id-oblivious candidate: the verifier's verdict, then a bounded simulation
// of the centre's machine. Its whole-graph path reuses the verifier's.
class BoundedSimulation final : public local::LocalAlgorithm {
 public:
  BoundedSimulation(std::unique_ptr<local::LocalAlgorithm> verifier,
                    long long sim_budget)
      : verifier_(std::move(verifier)), sim_budget_(sim_budget) {}

  std::string name() const override {
    return cat("candidate-simulate-", sim_budget_);
  }
  int horizon() const override { return verifier_->horizon(); }
  bool id_oblivious() const override { return true; }

  Verdict evaluate(const BallView& ball) const override {
    return verifier_->evaluate(ball) == Verdict::no
               ? Verdict::no
               : simulate_center(ball.center_label(), sim_budget_);
  }

  std::optional<std::vector<Verdict>> evaluate_all(
      const local::LabeledGraph& g, exec::ThreadPool* pool) const override {
    auto out = verifier_->evaluate_all(g, pool);
    if (!out.has_value()) {
      return std::nullopt;
    }
    for (std::size_t v = 0; v < out->size(); ++v) {
      if ((*out)[v] == Verdict::yes) {
        (*out)[v] = simulate_center(g.labels()[v], sim_budget_);
      }
    }
    return out;
  }

 private:
  std::unique_ptr<local::LocalAlgorithm> verifier_;
  long long sim_budget_;
};

}  // namespace

std::unique_ptr<local::LocalAlgorithm> make_gmr_decider(
    std::shared_ptr<const local::LocalAlgorithm> verifier, long long sim_cap) {
  std::string name = cat("decide-G(M,r)[", verifier->name(), "]");
  return std::make_unique<local::GatedAlgorithm>(
      std::move(name), std::move(verifier),
      [sim_cap](const local::Label& center, local::Id center_id) {
        return simulate_center(
            center, static_cast<long long>(std::min<local::Id>(
                        center_id, static_cast<local::Id>(sim_cap))));
      });
}

GeneratedBalls neighborhood_generator(const GmrParams& params, int radius) {
  LOCALD_CHECK(radius >= 0, "radius must be non-negative");
  GeneratedBalls out;
  const tm::RunOutcome run =
      tm::run_machine(params.machine, params.step_budget);
  if (run.halted) {
    GmrInstance instance = build_gmr(params);
    out.exact = true;
    out.host = std::move(instance.graph);
    for (graph::NodeId v = 0; v < out.host.node_count(); ++v) {
      out.centers.push_back(v);
    }
    return out;
  }
  // Prefix construction: 4r-style rows, enough to out-span the radius.
  const int min_rows = std::max({4 * (params.r + 1), 4 * (radius + 1),
                                 params.fragment_size});
  const int side =
      static_cast<int>(std::bit_ceil(static_cast<unsigned>(min_rows)));
  const tm::ExecutionTable prefix =
      tm::ExecutionTable::build(params.machine, side, side);
  const tm::FragmentCollection collection = tm::build_fragment_collection(
      params.machine, params.fragment_size, params.policy, {&prefix});
  GmrInstance instance = assemble_gmr(params.machine, params.r, prefix,
                                      collection, params.pyramidal);
  out.exact = false;
  out.host = std::move(instance.graph);
  // Exclude balls touching the prefix's synthetic bottom rows: table cell
  // ids are y * side + x for y < side.
  const graph::NodeId table_nodes =
      static_cast<graph::NodeId>(side) * static_cast<graph::NodeId>(side);
  for (graph::NodeId v = 0; v < out.host.node_count(); ++v) {
    if (v < table_nodes) {
      const int y = static_cast<int>(v) / side;
      if (y + radius >= side) {
        continue;
      }
    }
    out.centers.push_back(v);
  }
  return out;
}

bool separation_accepts(const local::LocalAlgorithm& oblivious_candidate,
                        const GmrParams& params,
                        const local::RunOptions& options) {
  LOCALD_CHECK(oblivious_candidate.id_oblivious(),
               "the separation algorithm runs Id-oblivious candidates");
  obs::Span span("separation-run", params.machine.name());
  const GeneratedBalls gen =
      neighborhood_generator(params, oblivious_candidate.horizon());
  // One run over the whole host (in bulk when the candidate offers it);
  // only the eligible centres' verdicts count.
  const local::RunResult run =
      local::run_oblivious(oblivious_candidate, gen.host, options);
  return std::all_of(gen.centers.begin(), gen.centers.end(),
                     [&](graph::NodeId v) {
                       return run.outputs[static_cast<std::size_t>(v)] ==
                              Verdict::yes;
                     });
}

std::unique_ptr<local::LocalAlgorithm> candidate_structure_only(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget) {
  return make_gmr_verifier(fragment_size, policy, pyramidal, step_budget);
}

std::unique_ptr<local::LocalAlgorithm> candidate_bounded_simulation(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget, long long sim_budget) {
  return std::make_unique<BoundedSimulation>(
      make_gmr_verifier(fragment_size, policy, pyramidal, step_budget),
      sim_budget);
}

std::vector<SeparationRow> run_separation_experiment(
    const std::vector<std::pair<std::string,
                                std::unique_ptr<local::LocalAlgorithm>>>&
        candidates,
    const std::vector<tm::TuringMachine>& machines, int r, int fragment_size,
    tm::FragmentPolicy policy, bool pyramidal, long long step_budget,
    const local::RunOptions& options) {
  obs::Span span("separation-experiment");
  std::vector<SeparationRow> rows;
  for (const auto& [name, candidate] : candidates) {
    for (const tm::TuringMachine& machine : machines) {
      GmrParams params{machine, r, fragment_size, policy, pyramidal,
                       step_budget};
      SeparationRow row;
      row.candidate = name;
      row.machine = machine.name();
      const tm::RunOutcome truth = tm::run_machine(machine, step_budget);
      row.halts = truth.halted;
      row.output = truth.output;
      row.r_accepts = separation_accepts(*candidate, params, options);
      // A separator must accept L0 members and reject L1 members; machines
      // that do not halt (within the budget) carry no requirement.
      row.misclassified =
          row.halts && (row.r_accepts != (row.output == 0));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

local::RandomizedGatedAlgorithm make_randomized_gmr_decider(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget, long long sim_cap) {
  return local::RandomizedGatedAlgorithm(
      "randomized-oblivious-gmr",
      make_gmr_verifier(fragment_size, policy, pyramidal, step_budget),
      [sim_cap](const local::Label& center, Rng& coin) {
        // n_v = 4^{tosses until first head} (Section 3.3), capped to keep
        // the simulation finite in practice.
        const int tosses = std::min(coin.coin_tosses_until_head(), 30);
        return simulate_center(center, std::min(sim_cap, 1LL << (2 * tosses)));
      });
}

double corollary1_failure_bound(double n) {
  return std::pow(1.0 - 1.0 / std::sqrt(n), n);
}

}  // namespace locald::halting
