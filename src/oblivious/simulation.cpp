#include "oblivious/simulation.h"

#include <algorithm>
#include <atomic>

#include "exec/thread_pool.h"
#include "support/format.h"
#include "support/rng.h"

namespace locald::oblivious {

namespace {

using local::BallView;
using local::Id;
using local::Verdict;

// Number of injections from b slots into u ids, saturating at `cap`.
std::size_t injection_count(Id u, int b, std::size_t cap) {
  std::size_t total = 1;
  for (int i = 0; i < b; ++i) {
    const Id factor = u - static_cast<Id>(i);
    if (factor == 0) {
      return 0;
    }
    if (total > cap / factor) {
      return cap + 1;  // saturated
    }
    total *= static_cast<std::size_t>(factor);
  }
  return total;
}

// Recursively enumerates all injections extending `chosen`; returns true if
// a rejecting assignment was found. `found` is the cross-branch abort flag:
// once any branch rejects, the remaining enumeration is pruned (the global
// verdict — an exists-quantifier — is already settled).
bool search_exhaustive(const local::LocalAlgorithm& inner,
                       const BallView& ball,
                       std::vector<Id>& chosen, std::vector<bool>& used,
                       Id universe, std::size_t& tried,
                       const std::atomic<bool>& found) {
  if (found.load(std::memory_order_relaxed)) {
    return false;
  }
  const std::size_t slot = chosen.size();
  if (slot == static_cast<std::size_t>(ball.node_count())) {
    ++tried;
    return inner.evaluate(ball.with_ids(chosen)) == Verdict::no;
  }
  for (Id id = 0; id < universe; ++id) {
    if (used[static_cast<std::size_t>(id)]) {
      continue;
    }
    used[static_cast<std::size_t>(id)] = true;
    chosen.push_back(id);
    if (search_exhaustive(inner, ball, chosen, used, universe, tried, found)) {
      return true;
    }
    chosen.pop_back();
    used[static_cast<std::size_t>(id)] = false;
  }
  return false;
}

}  // namespace

ObliviousSimulation::ObliviousSimulation(
    std::shared_ptr<const local::LocalAlgorithm> inner,
    SimulationOptions options)
    : inner_(std::move(inner)), options_(options) {
  LOCALD_CHECK(inner_ != nullptr, "inner algorithm required");
  LOCALD_CHECK(!inner_->id_oblivious(),
               "simulating an already Id-oblivious algorithm is a no-op");
  LOCALD_CHECK(options_.id_universe >= 1, "empty id universe");
}

std::string ObliviousSimulation::name() const {
  return cat("A*(", inner_->name(), ";u=", options_.id_universe, ";n=",
             options_.max_assignments, ";s=", options_.seed, ")");
}

Verdict ObliviousSimulation::evaluate(const BallView& ball) const {
  const int b = ball.node_count();
  LOCALD_CHECK(static_cast<Id>(b) <= options_.id_universe,
               "id universe smaller than the ball");
  exec::ThreadPool* const pool = options_.pool;
  SimulationStats stats;
  std::atomic<bool> rejected{false};
  std::atomic<std::size_t> tried{0};

  const std::size_t total =
      injection_count(options_.id_universe, b, options_.max_assignments);
  if (total <= options_.max_assignments) {
    stats.exhaustive = true;
    // Enumeration fanned out over the centre slot's id: every branch owns
    // its chosen/used scratch, so branches are independent. The exhaustive
    // path only triggers for small universes (the injection count fits the
    // budget), so the per-branch O(universe) scratch is cheap.
    const auto universe = static_cast<std::size_t>(options_.id_universe);
    exec::parallel_for(pool, universe, [&](std::size_t first) {
      if (rejected.load(std::memory_order_relaxed)) {
        return;
      }
      std::vector<Id> chosen{static_cast<Id>(first)};
      std::vector<bool> used(universe);
      used[first] = true;
      std::size_t branch_tried = 0;
      const bool found =
          search_exhaustive(*inner_, ball, chosen, used, options_.id_universe,
                            branch_tried, rejected);
      tried.fetch_add(branch_tried, std::memory_order_relaxed);
      if (found) {
        rejected.store(true, std::memory_order_relaxed);
      }
    });
  } else {
    // Sampled search: the computable stand-in for the infinite enumeration.
    // Candidate i is drawn from counter stream (seed ^ fingerprint, i), so
    // the candidate set — and with it the exists-verdict — is fixed before
    // any thread runs; scheduling only affects which candidates get skipped
    // after the first rejecting one is found. Candidate id k goes to the
    // ball node at canonical position k, which makes the verdict a function
    // of the ball's class rather than of its node numbering.
    const graph::CanonicalForm form = ball.canonical_form();
    const std::uint64_t stream_seed = options_.seed ^ form.fingerprint;
    exec::parallel_for(pool, options_.max_assignments, [&](std::size_t i) {
      if (rejected.load(std::memory_order_relaxed)) {
        return;
      }
      Rng rng = Rng::stream(stream_seed, i);
      const auto drawn = rng.sample_distinct(options_.id_universe,
                                             static_cast<std::size_t>(b));
      std::vector<Id> ids(drawn.size());
      for (std::size_t k = 0; k < drawn.size(); ++k) {
        ids[static_cast<std::size_t>(form.order[k])] = drawn[k];
      }
      tried.fetch_add(1, std::memory_order_relaxed);
      if (inner_->evaluate(ball.with_ids(ids)) == Verdict::no) {
        rejected.store(true, std::memory_order_relaxed);
      }
    });
  }

  stats.assignments_tried = tried.load();
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_ = stats;
  }
  return rejected.load() ? Verdict::no : Verdict::yes;
}

std::unique_ptr<ObliviousSimulation> make_oblivious_simulation(
    std::shared_ptr<const local::LocalAlgorithm> inner,
    SimulationOptions options) {
  return std::make_unique<ObliviousSimulation>(std::move(inner), options);
}

}  // namespace locald::oblivious
