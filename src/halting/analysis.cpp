#include "halting/analysis.h"

#include <bit>
#include <cmath>

#include "support/format.h"
#include "tm/run.h"

namespace locald::halting {

namespace {

using local::BallView;
using local::Verdict;

// Decodes the machine named in the centre's label; nullopt on garbage.
std::optional<tm::TuringMachine> machine_of(const BallView& ball) {
  const auto decoded = decode_label(ball.center_label());
  if (!decoded.has_value()) {
    return std::nullopt;
  }
  try {
    return tm::TuringMachine::decode(decoded->machine_encoding);
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace

std::unique_ptr<local::LocalAlgorithm> make_gmr_decider(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget, long long sim_cap) {
  auto verifier = std::make_shared<std::unique_ptr<local::LocalAlgorithm>>(
      make_gmr_verifier(fragment_size, policy, pyramidal, step_budget));
  return local::make_id_aware(
      cat("decide-G(M,r)(k=", fragment_size, ")"), 2,
      [verifier, sim_cap](const BallView& ball) {
        if ((*verifier)->evaluate(ball.without_ids()) == Verdict::no) {
          return Verdict::no;
        }
        const auto m = machine_of(ball);
        if (!m.has_value()) {
          return Verdict::no;
        }
        const long long budget = static_cast<long long>(
            std::min<local::Id>(ball.center_id(),
                                static_cast<local::Id>(sim_cap)));
        const tm::RunOutcome run = tm::run_machine(*m, budget);
        if (run.halted && run.output != 0) {
          return Verdict::no;
        }
        return Verdict::yes;
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
                        const GmrParams& params) {
  LOCALD_CHECK(oblivious_candidate.id_oblivious(),
               "the separation algorithm runs Id-oblivious candidates");
  const GeneratedBalls gen =
      neighborhood_generator(params, oblivious_candidate.horizon());
  local::BallScratch scratch;
  for (graph::NodeId v : gen.centers) {
    const BallView ball =
        scratch.extract(gen.host, nullptr, v, oblivious_candidate.horizon());
    if (oblivious_candidate.evaluate(ball) == Verdict::no) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<local::LocalAlgorithm> candidate_always_yes() {
  return local::make_oblivious("candidate-always-yes", 2,
                               [](const BallView&) { return Verdict::yes; });
}

std::unique_ptr<local::LocalAlgorithm> candidate_structure_only(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget) {
  auto verifier = std::make_shared<std::unique_ptr<local::LocalAlgorithm>>(
      make_gmr_verifier(fragment_size, policy, pyramidal, step_budget));
  return local::make_oblivious(
      "candidate-structure-only", 2,
      [verifier](const BallView& ball) { return (*verifier)->evaluate(ball); });
}

std::unique_ptr<local::LocalAlgorithm> candidate_bounded_simulation(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget, long long sim_budget) {
  auto verifier = std::make_shared<std::unique_ptr<local::LocalAlgorithm>>(
      make_gmr_verifier(fragment_size, policy, pyramidal, step_budget));
  return local::make_oblivious(
      cat("candidate-simulate-", sim_budget), 2,
      [verifier, sim_budget](const BallView& ball) {
        if ((*verifier)->evaluate(ball) == Verdict::no) {
          return Verdict::no;
        }
        const auto m = machine_of(ball);
        if (!m.has_value()) {
          return Verdict::no;
        }
        const tm::RunOutcome run = tm::run_machine(*m, sim_budget);
        if (run.halted && run.output != 0) {
          return Verdict::no;
        }
        return Verdict::yes;
      });
}

std::vector<SeparationRow> run_separation_experiment(
    const std::vector<std::pair<std::string,
                                std::unique_ptr<local::LocalAlgorithm>>>&
        candidates,
    const std::vector<tm::TuringMachine>& machines, int r, int fragment_size,
    tm::FragmentPolicy policy, bool pyramidal, long long step_budget) {
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
      row.r_accepts = separation_accepts(*candidate, params);
      // A separator must accept L0 members and reject L1 members; machines
      // that do not halt (within the budget) carry no requirement.
      row.misclassified =
          row.halts && (row.r_accepts != (row.output == 0));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

namespace {

class RandomizedGmrDecider final : public local::RandomizedLocalAlgorithm {
 public:
  RandomizedGmrDecider(int fragment_size, tm::FragmentPolicy policy,
                       bool pyramidal, long long step_budget,
                       long long sim_cap)
      : verifier_(make_gmr_verifier(fragment_size, policy, pyramidal,
                                    step_budget)),
        sim_cap_(sim_cap) {}

  std::string name() const override { return "randomized-oblivious-gmr"; }
  int horizon() const override { return 2; }
  bool id_oblivious() const override { return true; }

  Verdict evaluate(const BallView& ball, Rng& coin) const override {
    if (verifier_->evaluate(ball) == Verdict::no) {
      return Verdict::no;
    }
    const auto m = machine_of(ball);
    if (!m.has_value()) {
      return Verdict::no;
    }
    // n_v = 4^{tosses until first head} (Section 3.3), capped to keep the
    // simulation finite in practice.
    const int tosses = std::min(coin.coin_tosses_until_head(), 30);
    long long budget = 1;
    for (int i = 0; i < tosses; ++i) {
      budget *= 4;
      if (budget >= sim_cap_) {
        budget = sim_cap_;
        break;
      }
    }
    const tm::RunOutcome run = tm::run_machine(*m, budget);
    if (run.halted && run.output != 0) {
      return Verdict::no;
    }
    return Verdict::yes;
  }

 private:
  std::unique_ptr<local::LocalAlgorithm> verifier_;
  long long sim_cap_;
};

}  // namespace

std::unique_ptr<local::RandomizedLocalAlgorithm>
make_randomized_gmr_decider(int fragment_size, tm::FragmentPolicy policy,
                            bool pyramidal, long long step_budget,
                            long long sim_cap) {
  return std::make_unique<RandomizedGmrDecider>(fragment_size, policy,
                                                pyramidal, step_budget,
                                                sim_cap);
}

double corollary1_failure_bound(double n) {
  return std::pow(1.0 - 1.0 / std::sqrt(n), n);
}

}  // namespace locald::halting
