#include "local/simulator.h"

#include <algorithm>
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
// are nearly always unique), so keying a hub ball costs far more than the
// evaluation it could save. Small balls encode in microseconds and do
// repeat. The G(M, r) verifier, whose pivot balls motivated the cap,
// decides in bulk and never reaches this path; an Id-oblivious algorithm
// without a bulk path over a host with hubs still does. The cap is a pure
// function of the ball, so memoized == unmemoized still holds at every
// thread count.
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

// One unit of per-node work in a panel. Each algorithm maps to one step;
// a gated algorithm's gate is a step of its own, shared by every algorithm
// that is or gates on it and always ordered before them.
struct PanelStep {
  const LocalAlgorithm* alg = nullptr;
  // Set iff the step is a gated algorithm's tail; `gate_step` then indexes
  // its gate.
  const GatedAlgorithm* gated = nullptr;
  std::size_t gate_step = 0;
  std::string cache_name;  // memo key prefix of an Id-oblivious step
  bool bulk = false;       // decided for every node by evaluate_all
};

}  // namespace

std::vector<RunResult> run_panel(const std::vector<const LocalAlgorithm*>& algs,
                                 const LabeledGraph& g, const IdAssignment* ids,
                                 const RunOptions& options) {
  LOCALD_CHECK(!algs.empty(), "a panel needs at least one algorithm");
  const int horizon = algs.front()->horizon();
  bool any_id_aware = false;
  for (const LocalAlgorithm* alg : algs) {
    LOCALD_CHECK(alg->horizon() == horizon,
                 "one panel serves algorithms of one horizon");
    any_id_aware = any_id_aware || !alg->id_oblivious();
  }
  if (any_id_aware) {
    LOCALD_CHECK(ids != nullptr, "id-aware algorithms need identifiers");
  }
  if (ids != nullptr) {
    LOCALD_CHECK(ids->node_count() == g.node_count(),
                 "identifier assignment size mismatch");
  }
  const int radius = options.radius.value_or(horizon);
  LOCALD_CHECK(radius >= 0, "visibility radius must be non-negative");

  exec::VerdictCache* cache = options.exec.cache;
  std::vector<PanelStep> steps;
  const auto oblivious_step = [&](const LocalAlgorithm* alg) {
    for (std::size_t s = 0; s < steps.size(); ++s) {
      if (steps[s].alg == alg && steps[s].gated == nullptr) {
        return s;
      }
    }
    steps.push_back({alg, nullptr, 0, cache != nullptr ? alg->name() : ""});
    return steps.size() - 1;
  };
  std::vector<std::size_t> step_of(algs.size());
  std::string names;
  for (std::size_t a = 0; a < algs.size(); ++a) {
    const LocalAlgorithm* alg = algs[a];
    if (a > 0) names += ',';
    names += alg->name();
    if (const auto* gated = dynamic_cast<const GatedAlgorithm*>(alg)) {
      const std::size_t gate = oblivious_step(&gated->gate());
      steps.push_back({alg, gated, gate, ""});
      step_of[a] = steps.size() - 1;
    } else if (alg->id_oblivious()) {
      step_of[a] = oblivious_step(alg);
    } else {
      steps.push_back({alg, nullptr, 0, ""});
      step_of[a] = steps.size() - 1;
    }
  }

  const std::size_t n = static_cast<std::size_t>(g.node_count());
  std::vector<std::vector<Verdict>> verdicts(steps.size());
  const IdAssignment* visible_ids = any_id_aware ? ids : nullptr;
  // One stage span for the whole node loop: extraction + canonical-encoding
  // memo keys + evaluation. Per-ball spans would swamp the trace at 10^6
  // nodes, so the inner pipeline is visible via the census/workload spans
  // and the bulk paths' own spans.
  obs::Span span("local-run", names);
  // Id-oblivious steps with a whole-graph path are decided first, at their
  // own horizon, with no extraction and no cache keying. A gated step's
  // tail reads only the centre, so only the remaining steps need balls.
  bool needs_ball = false;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    PanelStep& step = steps[s];
    if (step.gated == nullptr && step.alg->id_oblivious() &&
        radius == step.alg->horizon()) {
      if (auto all = step.alg->evaluate_all(g, options.exec.pool)) {
        LOCALD_CHECK(all->size() == n, "evaluate_all: one verdict per node");
        verdicts[s] = std::move(*all);
        step.bulk = true;
        continue;
      }
    }
    verdicts[s].resize(n);
    needs_ball = needs_ball || step.gated == nullptr;
  }
  const bool per_node = std::any_of(
      steps.begin(), steps.end(), [](const PanelStep& s) { return !s.bulk; });
  exec::parallel_for(options.exec.pool, per_node ? n : 0, [&](std::size_t i) {
    const auto v = static_cast<graph::NodeId>(i);
    // One extraction arena per worker thread, reused across all nodes that
    // thread processes. Nested parallel_for runs inline on the calling
    // worker, so no second extraction can interleave with a live view.
    static thread_local BallScratch scratch;
    const BallView ball = needs_ball
                              ? scratch.extract(g, visible_ids, v, radius)
                              : BallView{};
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const PanelStep& step = steps[s];
      if (step.bulk) {
        continue;
      }
      Verdict out;
      if (step.gated != nullptr) {
        out = verdicts[step.gate_step][i] == Verdict::no
                  ? Verdict::no
                  : step.gated->tail(g.label(v), ids->of(v));
      } else if (step.alg->id_oblivious()) {
        out = decide_ball(*step.alg, step.cache_name, ball.without_ids(),
                          cache);
      } else {
        out = step.alg->evaluate(ball);
      }
      verdicts[s][i] = out;
    }
  });

  // Scheduling-independent reduction: node order, after every slot is final.
  std::vector<RunResult> results(algs.size());
  for (std::size_t a = 0; a < algs.size(); ++a) {
    RunResult& result = results[a];
    std::vector<Verdict>& row = verdicts[step_of[a]];
    const bool shared =
        std::count(step_of.begin(), step_of.end(), step_of[a]) > 1;
    result.outputs = shared ? row : std::move(row);
    for (std::size_t i = 0; i < n; ++i) {
      if (result.outputs[i] == Verdict::no) {
        result.accepted = false;
        result.first_rejecting = static_cast<graph::NodeId>(i);
        break;
      }
    }
  }
  return results;
}

RunResult run_local_algorithm(const LocalAlgorithm& alg, const LabeledGraph& g,
                              const IdAssignment& ids,
                              const RunOptions& options) {
  return std::move(run_panel({&alg}, g, &ids, options).front());
}

RunResult run_oblivious(const LocalAlgorithm& alg, const LabeledGraph& g,
                        const RunOptions& options) {
  LOCALD_CHECK(alg.id_oblivious(),
               "run_oblivious requires an Id-oblivious algorithm");
  return std::move(run_panel({&alg}, g, nullptr, options).front());
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
  const auto reruns = static_cast<std::size_t>(trials - 1);
  exec::parallel_for(options.exec.pool, reruns, [&](std::size_t i) {
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

AcceptanceEstimate estimate_acceptance(const RandomizedGatedAlgorithm& alg,
                                       const LabeledGraph& g, int trials,
                                       const RunOptions& options) {
  LOCALD_CHECK(trials > 0, "need at least one trial");
  AcceptanceEstimate est;
  est.trials = trials;
  // A node whose gate says no rejects every trial. Skipping the tails' coin
  // draws changes no other cell: each (trial, node) has its own stream.
  if (!run_oblivious(alg.gate(), g, options).accepted) {
    return est;
  }
  obs::Span span("acceptance-trials", alg.name());
  const std::size_t n = static_cast<std::size_t>(g.node_count());
  std::atomic<int> accepted{0};
  const auto trial_count = static_cast<std::size_t>(trials);
  exec::parallel_for(options.exec.pool, trial_count, [&](std::size_t t) {
    for (std::size_t v = 0; v < n; ++v) {
      Rng coin = Rng::stream(options.seed, t, v);
      if (alg.tail(g.labels()[v], coin) == Verdict::no) {
        return;
      }
    }
    accepted.fetch_add(1, std::memory_order_relaxed);
  });
  est.accepted = accepted.load();
  return est;
}

}  // namespace locald::local
