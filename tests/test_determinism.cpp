// Scheduling-determinism of the execution engine: the counter-based RNG
// streams, the parallel simulator entry points (bit-identical results at
// any thread count), the ball-fingerprint memoization (memoized and
// unmemoized runs agree — including on the re-enabled fig2-gmr verifier
// path and on the Id-oblivious simulation A*, whose verdicts are invariant
// under ball-node renumbering), the bulk canonicalization census
// (byte-identical encodings at 1/2/8 threads on the families whose cells
// used to take the degree-profile fallback), estimate_acceptance against
// its definition (gate on a freshly extracted ball, then the tail, per
// trial and node), and the zero-trial acceptance-estimate guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>

#include "cli/bench.h"
#include "exec/context.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "halting/analysis.h"
#include "halting/gmr.h"
#include "halting/verifier.h"
#include "local/fault_profile.h"
#include "local/simulator.h"
#include "oblivious/simulation.h"
#include "support/rng.h"
#include "tm/zoo.h"

namespace locald::local {
namespace {

using graph::make_cycle;
using graph::make_path;

LabeledGraph two_colored_cycle(int n) {
  LabeledGraph g = LabeledGraph::uniform(make_cycle(n), Label{});
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    g.set_label(v, Label{v % 2});
  }
  return g;
}

TEST(RngStream, DeterministicAndStateIndependent) {
  Rng a = Rng::stream(7, 3, 5);
  Rng b = Rng::stream(7, 3, 5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
  // Deriving other streams in between must not perturb stream (3, 5).
  Rng noise1 = Rng::stream(7, 0, 0);
  Rng noise2 = Rng::stream(7, 99, 1);
  noise1.next_u64();
  noise2.next_u64();
  Rng c = Rng::stream(7, 3, 5);
  Rng d = Rng::stream(7, 3, 5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(c.next_u64(), d.next_u64());
  }
}

TEST(RngStream, DistinctCoordinatesDiverge) {
  const std::uint64_t base = Rng::stream(1, 2, 3).next_u64();
  EXPECT_NE(base, Rng::stream(2, 2, 3).next_u64());
  EXPECT_NE(base, Rng::stream(1, 3, 3).next_u64());
  EXPECT_NE(base, Rng::stream(1, 2, 4).next_u64());
  // Adjacent counters should not produce obviously correlated values.
  EXPECT_NE(Rng::stream(1, 2, 3).next_u64() ^ Rng::stream(1, 2, 4).next_u64(),
            0u);
}

// A randomized decider that actually consumes coins: an always-yes gate,
// then accept unless the node's geometric draw exceeds a label-dependent
// threshold.
RandomizedGatedAlgorithm coin_hungry() {
  return RandomizedGatedAlgorithm(
      "coin-hungry",
      make_oblivious("always-yes", 1,
                     [](const BallView&) { return Verdict::yes; }),
      [](const Label& center, Rng& coin) {
        const int tosses = coin.coin_tosses_until_head();
        const auto threshold = 3 + center.at(0);
        return tosses <= threshold ? Verdict::yes : Verdict::no;
      });
}

TEST(Determinism, EstimateAcceptanceIdenticalAt1And2And8Threads) {
  const LabeledGraph g = two_colored_cycle(12);
  const RandomizedGatedAlgorithm alg = coin_hungry();
  constexpr int kTrials = 300;
  constexpr std::uint64_t kSeed = 99;

  exec::ExecContext serial;
  const auto reference =
      estimate_acceptance(alg, g, kTrials, {serial, kSeed});
  EXPECT_EQ(reference.trials, kTrials);
  // The estimate must be non-trivial for the comparison to mean anything.
  EXPECT_GT(reference.accepted, 0);
  EXPECT_LT(reference.accepted, kTrials);

  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    exec::ExecContext ctx{&pool, nullptr};
    const auto run = estimate_acceptance(alg, g, kTrials, {ctx, kSeed});
    EXPECT_EQ(run.accepted, reference.accepted) << threads << " threads";
    EXPECT_EQ(run.trials, reference.trials);
  }
}

TEST(Determinism, ProbeIdDependenceIdenticalAt1And2And8Threads) {
  const LabeledGraph g = LabeledGraph::uniform(make_cycle(6), Label{});
  const auto threshold = make_id_aware("big-id-rejects", 0, [](const BallView& b) {
    return b.center_id() >= 7 ? Verdict::no : Verdict::yes;
  });
  const auto constant =
      make_id_aware("const", 0, [](const BallView&) { return Verdict::yes; });
  constexpr std::uint64_t kSeed = 5;

  exec::ExecContext serial;
  const auto ref_dep =
      probe_id_dependence(*threshold, g, /*universe=*/8, 20, {serial, kSeed});
  EXPECT_TRUE(ref_dep.some_node_output_changed);
  EXPECT_TRUE(ref_dep.global_verdict_changed);
  const auto ref_const =
      probe_id_dependence(*constant, g, 1'000'000, 10, {serial, kSeed});
  EXPECT_FALSE(ref_const.some_node_output_changed);

  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    exec::ExecContext ctx{&pool, nullptr};
    const auto dep =
        probe_id_dependence(*threshold, g, 8, 20, {ctx, kSeed});
    EXPECT_EQ(dep.some_node_output_changed, ref_dep.some_node_output_changed);
    EXPECT_EQ(dep.global_verdict_changed, ref_dep.global_verdict_changed);
    const auto con = probe_id_dependence(*constant, g, 1'000'000, 10, {ctx, kSeed});
    EXPECT_FALSE(con.some_node_output_changed);
  }
}

TEST(Determinism, RunLocalAlgorithmCtxMatchesSerialOverload) {
  const LabeledGraph g = two_colored_cycle(10);
  const IdAssignment ids = make_consecutive(g.node_count());
  // Rejects on odd labels: exercises first_rejecting.
  const auto alg = make_id_aware("odd-rejects", 1, [](const BallView& b) {
    return b.center_label().at(0) == 1 ? Verdict::no : Verdict::yes;
  });
  const auto legacy = run_local_algorithm(*alg, g, ids);
  for (int threads : {1, 8}) {
    exec::ThreadPool pool(threads);
    exec::VerdictCache cache;
    exec::ExecContext ctx{&pool, &cache};
    const auto run = run_local_algorithm(*alg, g, ids, {ctx});
    EXPECT_EQ(run.outputs, legacy.outputs);
    EXPECT_EQ(run.accepted, legacy.accepted);
    EXPECT_EQ(run.first_rejecting, legacy.first_rejecting);
  }
}

TEST(CacheCorrectness, MemoizedAndUnmemoizedRunsAgree) {
  // Every ball of an unlabeled cycle is isomorphic, so one evaluation per
  // class suffices; the memoized run must still produce the same outputs.
  const LabeledGraph g = LabeledGraph::uniform(make_cycle(24), Label{});
  std::atomic<int> evaluations{0};
  const auto alg = make_oblivious("degree-2-check", 1, [&](const BallView& b) {
    evaluations.fetch_add(1, std::memory_order_relaxed);
    return b.g.degree(b.center) == 2 ? Verdict::yes : Verdict::no;
  });

  exec::ExecContext plain;
  const auto unmemoized = run_oblivious(*alg, g, {plain});
  const int unmemoized_evals = evaluations.exchange(0);
  EXPECT_EQ(unmemoized_evals, 24);

  exec::VerdictCache cache;
  exec::ExecContext memo{nullptr, &cache};
  const auto memoized = run_oblivious(*alg, g, {memo});
  EXPECT_EQ(memoized.outputs, unmemoized.outputs);
  EXPECT_EQ(memoized.accepted, unmemoized.accepted);
  // 24 isomorphic balls, one canonical class: decided once.
  EXPECT_EQ(evaluations.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 23u);

  // A graph with several classes: memoized still agrees with unmemoized.
  const LabeledGraph mixed = two_colored_cycle(16);
  const auto direct = run_oblivious(*alg, mixed, {plain});
  exec::VerdictCache cache2;
  exec::ThreadPool pool(8);
  exec::ExecContext memo_parallel{&pool, &cache2};
  const auto cached = run_oblivious(*alg, mixed, {memo_parallel});
  EXPECT_EQ(cached.outputs, direct.outputs);
}

TEST(Determinism, ObliviousSimulationVerdictIndependentOfPool) {
  // Id-reading inner that rejects when the centre holds the largest id in
  // the ball: A* must find a rejecting assignment in both search modes.
  auto inner = std::make_shared<LambdaAlgorithm>(
      "center-max-rejects", 1, false, [](const BallView& ball) {
        const Id c = ball.center_id();
        for (graph::NodeId v = 0; v < ball.node_count(); ++v) {
          if (v != ball.center && ball.id_of(v) > c) {
            return Verdict::yes;
          }
        }
        return Verdict::no;
      });
  const LabeledGraph g = LabeledGraph::uniform(make_path(5), Label{});
  const Ball ball = extract_ball(g, nullptr, 2, 1);

  for (bool exhaustive : {true, false}) {
    oblivious::SimulationOptions serial_opts;
    serial_opts.id_universe = exhaustive ? 8 : 4096;
    serial_opts.max_assignments = exhaustive ? 1'000 : 64;
    const auto serial_sim =
        oblivious::make_oblivious_simulation(inner, serial_opts);
    const Verdict reference = serial_sim->evaluate(ball);
    EXPECT_EQ(serial_sim->last_stats().exhaustive, exhaustive);

    exec::ThreadPool pool(8);
    oblivious::SimulationOptions pooled = serial_opts;
    pooled.pool = &pool;
    const auto pooled_sim = oblivious::make_oblivious_simulation(inner, pooled);
    EXPECT_EQ(pooled_sim->evaluate(ball), reference);
  }
}

TEST(Determinism, CensusEncodingsByteIdenticalAt1And2And8Threads) {
  // The two families whose census cells PR 4 kept off the exact path: the
  // census must now be exact AND byte-identical at every thread count.
  for (const graph::CsrGraph& host :
       {graph::make_hypercube(5), graph::make_complete_bipartite(7, 7)}) {
    const std::vector<std::string> payloads(
        static_cast<std::size_t>(host.node_count()));
    const graph::BallCensusResult serial =
        graph::canonical_census(host, payloads, 1, nullptr);
    for (int threads : {1, 2, 8}) {
      exec::ThreadPool pool(threads);
      const graph::BallCensusResult pooled =
          graph::canonical_census(host, payloads, 1, &pool);
      ASSERT_EQ(pooled.class_of, serial.class_of) << threads << " threads";
      ASSERT_EQ(pooled.class_encoding, serial.class_encoding)
          << threads << " threads";
      EXPECT_EQ(pooled.class_representative, serial.class_representative);
      EXPECT_EQ(pooled.distinct, serial.distinct);
      EXPECT_EQ(pooled.unique_structures, serial.unique_structures);
      EXPECT_EQ(pooled.raw_duplicates, serial.raw_duplicates);
    }
  }
}

TEST(Determinism, FamilyWorkloadCellsByteIdenticalNowThatTheFallbackIsGone) {
  // `locald bench` documents over hypercube and complete-bipartite — the
  // cells that previously used the sound-but-incomplete degree-profile
  // key — byte-identical across a 1/2/8 thread grid.
  cli::BenchOptions base;
  base.seed = 13;
  base.families = {"hypercube", "complete-bipartite",
                   "complete-bipartite:a=1"};
  base.sizes = {32, 64};
  std::ostringstream serial;
  std::ostringstream pooled;
  cli::BenchOptions a = base;
  a.thread_grid = {1};
  EXPECT_EQ(cli::run_bench(a, serial), 0);
  cli::BenchOptions b = base;
  b.thread_grid = {2, 8};  // bench cross-checks the grid internally too
  EXPECT_EQ(cli::run_bench(b, pooled), 0);
  EXPECT_EQ(serial.str(), pooled.str());
}

TEST(CacheCorrectness, MemoizedAndUnmemoizedAgreeOnTheGmrVerifierPath) {
  // The G(M, r) verifier decides a whole host at once from radius-1 node
  // facts (its evaluate_all), so a run with the shared cache wired up
  // returns the uncached verdicts and never keys a ball: the cache sees
  // no lookup at all.
  tm::FragmentPolicy policy;
  policy.max_fragments = 60;
  policy.seed = 7;
  halting::GmrParams params{tm::halt_after(2, 0), 1, 3, policy, false, 4096};
  const auto inst = halting::build_gmr(params);
  const auto verifier = halting::make_gmr_verifier(3, policy, false, 4096);

  exec::ExecContext plain;
  const auto unmemoized = run_oblivious(*verifier, inst.graph, {plain});
  for (int threads : {1, 8}) {
    exec::ThreadPool pool(threads);
    exec::VerdictCache cache;
    exec::ExecContext memo{&pool, &cache};
    const auto memoized = run_oblivious(*verifier, inst.graph, {memo});
    EXPECT_EQ(memoized.outputs, unmemoized.outputs) << threads << " threads";
    EXPECT_EQ(memoized.accepted, unmemoized.accepted);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 0u);
  }
}

TEST(Determinism, ExhaustiveSimulationMemoNeverChangesTheVerdict) {
  // A*'s exhaustive-mode verdicts quantify over every injection, so the
  // shared cache may answer isomorphic balls: serial or pooled, memoized
  // runs return the uncached verdicts, and the 12 isomorphic balls of the
  // cycle are decided once.
  auto inner = std::make_shared<LambdaAlgorithm>(
      "center-max-rejects", 1, false, [](const BallView& ball) {
        const Id c = ball.center_id();
        for (graph::NodeId v = 0; v < ball.node_count(); ++v) {
          if (v != ball.center && ball.id_of(v) > c) {
            return Verdict::yes;
          }
        }
        return Verdict::no;
      });
  oblivious::SimulationOptions options;
  options.id_universe = 6;
  options.max_assignments = 10'000;
  const auto sim = oblivious::make_oblivious_simulation(inner, options);
  const LabeledGraph cycle = LabeledGraph::uniform(make_cycle(12), Label{});
  exec::ExecContext plain;
  const auto uncached = run_oblivious(*sim, cycle, {plain});
  EXPECT_TRUE(sim->last_stats().exhaustive);
  exec::VerdictCache cache;
  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    exec::ExecContext ctx{&pool, &cache};
    EXPECT_EQ(run_oblivious(*sim, cycle, {ctx}).outputs, uncached.outputs)
        << threads << " threads";
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.hits, 0u);
}

// Id-reading inner for the class-invariance tests: rejects iff the ball's
// label-1 node holds a larger id than its label-2 node.
std::shared_ptr<const LocalAlgorithm> label1_above_label2_rejects() {
  return std::make_shared<LambdaAlgorithm>(
      "label1-above-label2-rejects", 1, false, [](const BallView& ball) {
        Id one = 0;
        Id two = 0;
        for (graph::NodeId v = 0; v < ball.node_count(); ++v) {
          if (ball.label(v).at(0) == 1) one = ball.id_of(v);
          if (ball.label(v).at(0) == 2) two = ball.id_of(v);
        }
        return one > two ? Verdict::no : Verdict::yes;
      });
}

TEST(Determinism, SampledSimulationIgnoresBallNodeNumbering) {
  // One sampled candidate, two numberings of the same labelled 3-path:
  // extraction orders ball nodes by (distance, host id), so swapping the
  // end labels swaps the ends' local indices. Applying the candidate by
  // node index would give the label-1 end the larger id in exactly one of
  // the two balls; applying it in canonical order gives both the same.
  oblivious::SimulationOptions options;
  options.max_assignments = 1;
  const auto sim = oblivious::make_oblivious_simulation(
      label1_above_label2_rejects(), options);
  LabeledGraph a = LabeledGraph::uniform(make_path(3), Label{0});
  a.set_label(0, Label{1});
  a.set_label(2, Label{2});
  LabeledGraph b = LabeledGraph::uniform(make_path(3), Label{0});
  b.set_label(0, Label{2});
  b.set_label(2, Label{1});
  const Ball ball_a = extract_ball(a, nullptr, 1, 1);
  const Ball ball_b = extract_ball(b, nullptr, 1, 1);
  ASSERT_EQ(ball_a.canonical_encoding(), ball_b.canonical_encoding());
  ASSERT_NE(ball_a.label(1), ball_b.label(1));
  const Verdict va = sim->evaluate(ball_a);
  EXPECT_FALSE(sim->last_stats().exhaustive);
  EXPECT_EQ(sim->last_stats().assignments_tried, 1u);
  EXPECT_EQ(sim->evaluate(ball_b), va);
}

TEST(CacheCorrectness, MemoizedAndUnmemoizedSampledSimulationAgree) {
  // Labels v % 3 on a 12-cycle: every radius-1 ball holds one node of each
  // label, and the balls of one class are numbered differently (node 0's
  // label-1 neighbour is its lower host id; node 3's is its higher one).
  // With a single sampled candidate per class, memoized runs at any thread
  // count must return the uncached verdicts.
  LabeledGraph g = LabeledGraph::uniform(make_cycle(12), Label{});
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    g.set_label(v, Label{v % 3});
  }
  ASSERT_NE(extract_ball(g, nullptr, 0, 1).label(1),
            extract_ball(g, nullptr, 3, 1).label(1));
  oblivious::SimulationOptions options;
  options.max_assignments = 1;
  const auto sim = oblivious::make_oblivious_simulation(
      label1_above_label2_rejects(), options);
  exec::ExecContext plain;
  const auto uncached = run_oblivious(*sim, g, {plain});
  EXPECT_FALSE(sim->last_stats().exhaustive);
  for (graph::NodeId v = 3; v < g.node_count(); ++v) {
    EXPECT_EQ(uncached.outputs[static_cast<std::size_t>(v)],
              uncached.outputs[static_cast<std::size_t>(v % 3)])
        << "node " << v;
  }
  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    exec::VerdictCache cache;
    exec::ExecContext memo{&pool, &cache};
    const auto memoized = run_oblivious(*sim, g, {memo});
    EXPECT_EQ(memoized.outputs, uncached.outputs) << threads << " threads";
    EXPECT_EQ(memoized.accepted, uncached.accepted);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.hits + stats.misses, 12u);
    if (threads == 1) {
      EXPECT_EQ(stats.hits, 9u);  // each class decided once
    }
  }
}

// estimate_acceptance from its definition: trial t accepts iff every node
// says yes, node v's verdict being its gate's on v's stripped ball,
// extracted afresh for every (trial, node) cell, and where that is yes the
// tail's on the coin stream (seed, t, v).
int reference_accepted(const RandomizedGatedAlgorithm& alg,
                       const LabeledGraph& g, int trials, std::uint64_t seed) {
  const int horizon = alg.gate().horizon();
  int accepted = 0;
  for (int t = 0; t < trials; ++t) {
    bool all_yes = true;
    for (graph::NodeId v = 0; all_yes && v < g.node_count(); ++v) {
      Rng coin = Rng::stream(seed, static_cast<std::uint64_t>(t),
                             static_cast<std::uint64_t>(v));
      all_yes = alg.gate().evaluate(extract_ball(g, nullptr, v, horizon)) ==
                    Verdict::yes &&
                alg.tail(g.label(v), coin) == Verdict::yes;
    }
    accepted += all_yes ? 1 : 0;
  }
  return accepted;
}

std::size_t gate_rejections(const RandomizedGatedAlgorithm& alg,
                            const LabeledGraph& g) {
  const RunResult run = run_oblivious(alg.gate(), g);
  return static_cast<std::size_t>(
      std::count(run.outputs.begin(), run.outputs.end(), Verdict::no));
}

TEST(AcceptanceEstimate, MatchesItsDefinitionAt1And4Threads) {
  tm::FragmentPolicy policy;
  policy.max_fragments = 60;
  const auto gmr = [&](tm::TuringMachine m) {
    return halting::build_gmr({std::move(m), 1, 3, policy, false, 4096})
        .graph;
  };
  const RandomizedGatedAlgorithm decider =
      halting::make_randomized_gmr_decider(3, policy, false, 4096);
  const RandomizedGatedAlgorithm hungry = coin_hungry();
  const LabeledGraph member = gmr(tm::halt_after(2, 0));
  const LabeledGraph non_member = gmr(tm::zigzag_halt(1, 1));
  ASSERT_EQ(gate_rejections(decider, member), 0u);
  ASSERT_EQ(gate_rejections(decider, non_member), 0u);
  // The first single-label mutation of the member that the verifier
  // rejects at exactly one node: every trial must reject, though every
  // other node's tail accepts.
  std::optional<LabeledGraph> mutated;
  for (std::uint64_t seed = 0; seed < 256 && !mutated; ++seed) {
    Rng rng(seed);
    LabeledGraph candidate = mutate_label(member, rng);
    if (gate_rejections(decider, candidate) == 1) {
      mutated = std::move(candidate);
    }
  }
  ASSERT_TRUE(mutated.has_value());
  const LabeledGraph cycle = two_colored_cycle(12);

  struct Case {
    const char* what;
    const RandomizedGatedAlgorithm& alg;
    const LabeledGraph& g;
    int trials;
  };
  const Case cases[] = {{"G(M, r) member", decider, member, 6},
                        {"G(M, r) non-member", decider, non_member, 6},
                        {"one gate rejection", decider, *mutated, 6},
                        {"coin-hungry cycle", hungry, cycle, 60}};
  constexpr std::uint64_t kSeed = 5;
  for (const Case& c : cases) {
    const int expected = reference_accepted(c.alg, c.g, c.trials, kSeed);
    for (int threads : {1, 4}) {
      exec::ThreadPool pool(threads);
      const AcceptanceEstimate est =
          estimate_acceptance(c.alg, c.g, c.trials, {{&pool, nullptr}, kSeed});
      EXPECT_EQ(est.trials, c.trials) << c.what;
      EXPECT_EQ(est.accepted, expected) << c.what << ", " << threads
                                        << " threads";
    }
  }
  // The reference itself must see each input's regime.
  EXPECT_EQ(reference_accepted(decider, member, 6, kSeed), 6);
  EXPECT_EQ(reference_accepted(decider, *mutated, 6, kSeed), 0);
  const int mixed = reference_accepted(hungry, cycle, 60, kSeed);
  EXPECT_GT(mixed, 0);
  EXPECT_LT(mixed, 60);
}

TEST(AcceptanceEstimate, ZeroTrialEstimateHasNoProbability) {
  AcceptanceEstimate empty;
  EXPECT_THROW(empty.probability(), Error);
  AcceptanceEstimate ran;
  ran.trials = 4;
  ran.accepted = 1;
  EXPECT_DOUBLE_EQ(ran.probability(), 0.25);
  // estimate_acceptance itself refuses to produce a zero-trial estimate.
  const LabeledGraph g = LabeledGraph::uniform(make_path(2), Label{});
  const RandomizedGatedAlgorithm alg = coin_hungry();
  exec::ExecContext serial;
  EXPECT_THROW(estimate_acceptance(alg, g, 0, {serial, 1}), Error);
}

}  // namespace
}  // namespace locald::local
