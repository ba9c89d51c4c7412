#include "local/simulator.h"

#include <atomic>

#include "obs/trace.h"

namespace locald::local {

namespace {

// Tag keeping probe_id_dependence's per-trial id-assignment streams disjoint
// from the (trial, node) coin streams of estimate_acceptance under one seed.
constexpr std::uint64_t kProbeIdStreamTag = 0x70726f6265ULL;  // "probe"

// Hub balls above this size bypass the cache. Class-keying costs
// Ω(ball bytes) per ball while the probability of meeting an isomorphic
// ball collapses as balls grow (a high-degree hub drags its whole
// neighbourhood — labels and all — into every nearby ball, and such balls
// are nearly always unique). Measured on fig2-gmr's default instances
// (Release, 4-core x86): the radius-2 balls around the pivot hold
// 1,800-3,500 nodes and take 3.5-8 ms each to encode, while verifying one
// takes 0.03-0.08 ms (the pivot's own ball, one per instance, 7-13 ms), at
// a ~0% hit rate — keying would cost ~100x the evaluation it could save.
// The graph's thousands of small grid-cell balls encode in microseconds
// and do repeat. The cap is a pure function of the ball, so memoized ==
// unmemoized still holds at every thread count.
constexpr graph::NodeId kMemoBallCap = 256;

// Evaluate through the memoization cache when one is wired up. The cache key
// is the ball's full canonical encoding (the fingerprint only picks the
// shard), so a fingerprint collision can never smuggle in a wrong verdict.
Verdict decide_ball(const LocalAlgorithm& alg, const std::string& alg_name,
                    const BallView& ball, exec::VerdictCache* cache) {
  if (cache == nullptr || ball.node_count() > kMemoBallCap) {
    return alg.evaluate(ball);
  }
  const graph::CanonicalForm form = ball.canonical_form();
  const auto hit = cache->lookup(form.fingerprint, alg_name, form.encoding);
  if (hit) {
    return *hit ? Verdict::yes : Verdict::no;
  }
  const Verdict out = alg.evaluate(ball);
  cache->insert(form.fingerprint, alg_name, form.encoding, out == Verdict::yes);
  return out;
}

int run_radius(const LocalAlgorithm& alg, const RunOptions& options) {
  const int r = options.radius.value_or(alg.horizon());
  LOCALD_CHECK(r >= 0, "visibility radius must be non-negative");
  return r;
}

RunResult run_impl(const LocalAlgorithm& alg, const LabeledGraph& g,
                   const IdAssignment* ids, const RunOptions& options) {
  RunResult result;
  const std::size_t n = static_cast<std::size_t>(g.node_count());
  result.outputs.assign(n, Verdict::yes);
  const std::string alg_name = options.exec.cache != nullptr ? alg.name() : "";
  // An Id-oblivious algorithm never sees ids: skip gathering them at all
  // instead of stripping afterwards.
  const IdAssignment* visible_ids = alg.id_oblivious() ? nullptr : ids;
  const int radius = run_radius(alg, options);
  // One stage span for the whole node loop: extraction + canonical-encoding
  // memo keys + evaluation. Per-ball spans would swamp the trace at 10^6
  // nodes, so the inner pipeline is visible via the census/workload spans.
  obs::Span span("local-run", alg.name());
  options.exec.for_each(n, [&](std::size_t i) {
    // One extraction arena per worker thread, reused across all nodes that
    // thread processes. Nested parallel_for runs inline on the calling
    // worker, so no second extraction can interleave with a live view.
    static thread_local BallScratch scratch;
    const auto v = static_cast<graph::NodeId>(i);
    const BallView ball = scratch.extract(g, visible_ids, v, radius);
    result.outputs[i] = decide_ball(alg, alg_name, ball, options.exec.cache);
  });
  // Scheduling-independent reduction: node order, after every slot is final.
  for (std::size_t i = 0; i < n; ++i) {
    if (result.outputs[i] == Verdict::no) {
      result.accepted = false;
      result.first_rejecting = static_cast<graph::NodeId>(i);
      break;
    }
  }
  return result;
}

}  // namespace

RunResult run_local_algorithm(const LocalAlgorithm& alg, const LabeledGraph& g,
                              const IdAssignment& ids,
                              const RunOptions& options) {
  LOCALD_CHECK(ids.node_count() == g.node_count(),
               "identifier assignment size mismatch");
  return run_impl(alg, g, &ids, options);
}

RunResult run_oblivious(const LocalAlgorithm& alg, const LabeledGraph& g,
                        const RunOptions& options) {
  LOCALD_CHECK(alg.id_oblivious(),
               "run_oblivious requires an Id-oblivious algorithm");
  return run_impl(alg, g, nullptr, options);
}

bool accepts(const LocalAlgorithm& alg, const LabeledGraph& g,
             const IdAssignment& ids) {
  return run_local_algorithm(alg, g, ids).accepted;
}

IdDependenceProbe probe_id_dependence(const LocalAlgorithm& alg,
                                      const LabeledGraph& g, Id universe,
                                      int trials, const RunOptions& options) {
  LOCALD_CHECK(trials >= 2, "need at least two assignments to compare");
  IdDependenceProbe probe;
  probe.trials = trials;
  const auto run_trial = [&](int t) {
    // Each trial's assignment comes from its own counter stream, so trial t
    // is the same input no matter which thread draws it.
    Rng trial_rng = Rng::stream(options.seed, kProbeIdStreamTag,
                                static_cast<std::uint64_t>(t));
    const IdAssignment ids =
        make_random_unbounded(g.node_count(), universe, trial_rng);
    return run_local_algorithm(alg, g, ids, options);
  };
  const RunResult reference = run_trial(0);
  std::atomic<bool> verdict_changed{false};
  std::atomic<bool> output_changed{false};
  options.exec.for_each(static_cast<std::size_t>(trials - 1),
                        [&](std::size_t i) {
    const RunResult run = run_trial(static_cast<int>(i) + 1);
    if (run.accepted != reference.accepted) {
      verdict_changed.store(true, std::memory_order_relaxed);
    }
    if (run.outputs != reference.outputs) {
      output_changed.store(true, std::memory_order_relaxed);
    }
  });
  probe.global_verdict_changed = verdict_changed.load();
  probe.some_node_output_changed = output_changed.load();
  return probe;
}

RandomizedRun run_randomized_once(const RandomizedLocalAlgorithm& alg,
                                  const LabeledGraph& g,
                                  const IdAssignment* ids, Rng& rng) {
  if (!alg.id_oblivious()) {
    LOCALD_CHECK(ids != nullptr,
                 "id-aware randomized algorithm needs identifiers");
  }
  const IdAssignment* visible_ids = alg.id_oblivious() ? nullptr : ids;
  RandomizedRun run;
  run.outputs.reserve(static_cast<std::size_t>(g.node_count()));
  BallScratch scratch;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const BallView ball = scratch.extract(g, visible_ids, v, alg.horizon());
    Rng node_coin = rng.split();
    const Verdict out = alg.evaluate(ball, node_coin);
    run.outputs.push_back(out);
    if (out == Verdict::no) {
      run.accepted = false;
    }
  }
  return run;
}

AcceptanceEstimate estimate_acceptance(const RandomizedLocalAlgorithm& alg,
                                       const LabeledGraph& g,
                                       const IdAssignment* ids, int trials,
                                       const RunOptions& options) {
  LOCALD_CHECK(trials > 0, "need at least one trial");
  if (!alg.id_oblivious()) {
    LOCALD_CHECK(ids != nullptr,
                 "id-aware randomized algorithm needs identifiers");
  }
  if (ids != nullptr) {
    LOCALD_CHECK(ids->node_count() == g.node_count(),
                 "identifier assignment size mismatch");
  }
  // Balls are fixed across trials (only the coins change): extract each one
  // once — owning, because the balls outlive any per-thread scratch.
  const IdAssignment* visible_ids = alg.id_oblivious() ? nullptr : ids;
  const std::size_t n = static_cast<std::size_t>(g.node_count());
  std::vector<Ball> balls(n);
  options.exec.for_each(n, [&](std::size_t i) {
    balls[i] = extract_ball(g, visible_ids, static_cast<graph::NodeId>(i),
                            alg.horizon());
  });
  std::atomic<int> accepted{0};
  options.exec.for_each(static_cast<std::size_t>(trials), [&](std::size_t t) {
    bool all_yes = true;
    for (std::size_t v = 0; v < n; ++v) {
      Rng coin = Rng::stream(options.seed, t, v);
      if (alg.evaluate(balls[v], coin) == Verdict::no) {
        all_yes = false;
        break;
      }
    }
    if (all_yes) {
      accepted.fetch_add(1, std::memory_order_relaxed);
    }
  });
  AcceptanceEstimate est;
  est.trials = trials;
  est.accepted = accepted.load();
  return est;
}

}  // namespace locald::local
