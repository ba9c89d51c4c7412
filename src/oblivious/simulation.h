// The Id-oblivious simulation A* from the paper's introduction.
//
// Given a local algorithm A, the simulation outputs no on a ball iff SOME
// one-to-one identifier assignment makes A output no. Under (¬B, ¬C) this
// decides the same property as A — the paper's proof that identifiers are
// unnecessary when both assumptions are dropped. Under (B) the simulation
// breaks (it explores assignments that the bounded-id promise rules out),
// and under (C) it may fail to terminate (the search is over an infinite
// domain): both failure modes are demonstrated in the experiments.
//
// Substitution (documented in docs/ARCHITECTURE.md): the infinite search is realized
// as exhaustive enumeration when the injection count fits the budget and
// as seeded random sampling otherwise; `id_universe` is the finite stand-in
// for N.
//
// Every verdict is a function of the stripped ball's isomorphism class, as
// the paper's A* is. Exhaustive mode quantifies over every injection.
// Sampled mode draws its candidates from streams keyed by the canonical
// fingerprint and gives candidate id k to the ball node at canonical
// position k, so isomorphic balls numbered differently are probed with the
// same effective assignments. The execution engine's `VerdictCache` may
// therefore memoize A* like any other algorithm; `name()` carries every
// option that changes a verdict, so one configuration's entries never
// answer for another.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "exec/thread_pool.h"
#include "local/algorithm.h"

namespace locald::oblivious {

struct SimulationOptions {
  local::Id id_universe = 1 << 20;     // ids searched in [0, id_universe)
  std::size_t max_assignments = 20'000;  // enumeration/sampling budget
  std::uint64_t seed = 1;
  // Candidate assignments are searched on this pool when set (null: serial).
  // The verdict is an exists-quantifier over a candidate set fixed by
  // (seed, ball fingerprint) counter streams, so it is identical at every
  // thread count; only `assignments_tried` may vary under parallelism.
  exec::ThreadPool* pool = nullptr;
};

// Statistics of the most recent completed evaluation (exposed for the
// experiments). When the same simulation object is evaluated from several
// threads at once — e.g. under the parallel node loop — the snapshot is the
// last evaluation to finish. A verdict answered by a `VerdictCache` never
// reaches `evaluate`, so it leaves the snapshot untouched.
struct SimulationStats {
  bool exhaustive = false;          // full injection enumeration used
  std::size_t assignments_tried = 0;
};

class ObliviousSimulation final : public local::LocalAlgorithm {
 public:
  ObliviousSimulation(std::shared_ptr<const local::LocalAlgorithm> inner,
                      SimulationOptions options);

  std::string name() const override;
  int horizon() const override { return inner_->horizon(); }
  bool id_oblivious() const override { return true; }

  local::Verdict evaluate(const local::BallView& ball) const override;

  SimulationStats last_stats() const {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return stats_;
  }

 private:
  std::shared_ptr<const local::LocalAlgorithm> inner_;
  SimulationOptions options_;
  mutable std::mutex stats_mu_;
  mutable SimulationStats stats_;
};

std::unique_ptr<ObliviousSimulation> make_oblivious_simulation(
    std::shared_ptr<const local::LocalAlgorithm> inner,
    SimulationOptions options = {});

}  // namespace locald::oblivious
