// Measures the batch-execution engine: strong scaling of the Corollary-1
// randomized decider over thread counts (identical accept counts at every
// width — the determinism contract), and the ball-fingerprint cache's
// effect on the Id-oblivious simulation A*.
#include <chrono>
#include <iostream>

#include "core/locald.h"
#include "exec/context.h"

using namespace locald;

namespace {

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::cout << "=== execution engine scaling ===\n\n";

  tm::FragmentPolicy policy;
  policy.max_fragments = 60;
  const auto decider =
      halting::make_randomized_gmr_decider(3, policy, false, 4096);
  halting::GmrParams params{tm::zigzag_halt(2, 1), 1, 3, policy, false, 4096};
  const auto inst = halting::build_gmr(params).graph;
  constexpr int kTrials = 400;
  constexpr std::uint64_t kSeed = 42;

  TextTable scaling({"threads", "wall(ms)", "speedup", "accepted/trials"});
  double serial_ms = 0.0;
  const int hw = exec::ThreadPool::hardware_parallelism();
  for (int threads = 1; threads <= hw; threads *= 2) {
    exec::ThreadPool pool(threads);
    exec::ExecContext ctx{&pool, nullptr};
    local::AcceptanceEstimate est;
    const double ms = wall_ms([&] {
      est = local::estimate_acceptance(*decider, inst, nullptr, kTrials,
                                       {ctx, kSeed});
    });
    if (threads == 1) serial_ms = ms;
    scaling.add_row({cat(threads), fixed(ms, 1), fixed(serial_ms / ms, 2),
                     cat(est.accepted, "/", est.trials)});
  }
  std::cout << "estimate_acceptance, n = " << inst.node_count()
            << " nodes x " << kTrials << " trials:\n"
            << scaling.render() << '\n';

  // Cache effect: A* over a cycle, where every stripped ball is isomorphic.
  auto reading = std::make_shared<local::LambdaAlgorithm>(
      "parity-with-ids", 1, false, [](const local::BallView& ball) {
        (void)ball.center_id();
        return ball.g.degree(ball.center) == 2 ? local::Verdict::yes
                                               : local::Verdict::no;
      });
  oblivious::SimulationOptions options;
  options.id_universe = 1 << 16;
  options.max_assignments = 2'000;
  const auto sim = oblivious::make_oblivious_simulation(reading, options);
  const local::LabeledGraph cycle =
      local::LabeledGraph::uniform(graph::make_cycle(64), local::Label{});

  TextTable memo({"mode", "wall(ms)", "cache hits", "cache entries"});
  {
    exec::ExecContext plain;
    const double ms =
        wall_ms([&] { (void)local::run_oblivious(*sim, cycle, {plain}); });
    memo.add_row({"unmemoized", fixed(ms, 1), "-", "-"});
  }
  {
    exec::VerdictCache cache;
    exec::ExecContext memoized{nullptr, &cache};
    const double ms =
        wall_ms([&] { (void)local::run_oblivious(*sim, cycle, {memoized}); });
    const auto stats = cache.stats();
    memo.add_row({"memoized", fixed(ms, 1), cat(stats.hits),
                  cat(stats.entries)});
  }
  std::cout << "A* on a 64-cycle (all balls isomorphic):\n" << memo.render();
  return 0;
}
