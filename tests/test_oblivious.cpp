// Tests for the Id-oblivious simulation A*: equivalence under (¬B, ¬C),
// failure under (B) (the Section-2 decider), and the unbounded-search
// obstruction under (C) (the Section-3 decider).
#include <gtest/gtest.h>

#include "exec/verdict_cache.h"
#include "graph/generators.h"
#include "local/property.h"
#include "local/simulator.h"
#include "oblivious/simulation.h"
#include "props/properties.h"
#include "trees/construction.h"
#include "trees/decide.h"

namespace locald::oblivious {
namespace {

using local::BallView;
using local::LabeledGraph;
using local::Verdict;

TEST(Simulation, RejectsObliviousInner) {
  auto inner = std::shared_ptr<const local::LocalAlgorithm>(
      props::proper_coloring_decider(2).release());
  EXPECT_THROW(make_oblivious_simulation(inner), Error);
}

TEST(Simulation, ReproducesIdIndependentAlgorithmExactly) {
  // An id-reading decider whose output never depends on ids: A* equals it.
  auto reading = std::make_shared<local::LambdaAlgorithm>(
      "agreement-with-ids", 1, false, [](const BallView& ball) {
        (void)ball.center_id();
        const auto x = ball.center_label().at(0);
        for (graph::NodeId w : ball.g.neighbors(ball.center)) {
          if (ball.label(w).at(0) != x) return Verdict::no;
        }
        return Verdict::yes;
      });
  SimulationOptions options;
  options.id_universe = 32;
  options.max_assignments = 3'000;
  const auto sim = make_oblivious_simulation(reading, options);
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    LabeledGraph g(graph::make_random_connected(
        7, 3, 200 + static_cast<std::uint64_t>(trial)));
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      g.set_label(v, local::Label{static_cast<std::int64_t>(rng.below(2))});
    }
    const auto direct = local::run_local_algorithm(
        *reading, g, local::make_consecutive(g.node_count()));
    const auto simulated = local::run_oblivious(*sim, g);
    EXPECT_EQ(direct.outputs, simulated.outputs);
  }
}

TEST(Simulation, ExhaustiveOnTinyBallsSampledOnLarge) {
  auto reading = std::make_shared<local::LambdaAlgorithm>(
      "const-with-ids", 0, false, [](const BallView& ball) {
        (void)ball.center_id();
        return Verdict::yes;
      });
  SimulationOptions options;
  options.id_universe = 6;
  options.max_assignments = 100;
  const auto sim = make_oblivious_simulation(reading, options);
  LabeledGraph tiny = LabeledGraph::uniform(graph::make_path(1),
                                            local::Label{});
  const local::Ball b0 = local::extract_ball(tiny, nullptr, 0, 0);
  sim->evaluate(b0);
  EXPECT_TRUE(sim->last_stats().exhaustive);
  EXPECT_EQ(sim->last_stats().assignments_tried, 6u);

  SimulationOptions big = options;
  big.id_universe = 1000;
  big.max_assignments = 50;
  auto reading2 = std::make_shared<local::LambdaAlgorithm>(
      "const-with-ids", 1, false,
      [](const BallView& b) { (void)b.center_id(); return Verdict::yes; });
  const auto sim2 = make_oblivious_simulation(reading2, big);
  LabeledGraph cyc = LabeledGraph::uniform(graph::make_cycle(9),
                                           local::Label{});
  const local::Ball b1 = local::extract_ball(cyc, nullptr, 0, 1);
  sim2->evaluate(b1);
  EXPECT_FALSE(sim2->last_stats().exhaustive);
  EXPECT_EQ(sim2->last_stats().assignments_tried, 50u);
}

// The paper's key point for Section 2: applying A* to the (B)-only decider
// for P breaks it — the simulation searches id assignments the bounded-id
// promise forbids, so A* rejects yes-instances.
TEST(Simulation, BreaksSection2DeciderUnderB) {
  trees::TreeParams p;
  p.r = 2;
  p.f = local::IdBound::linear_plus(1);
  auto decider = std::shared_ptr<const local::LocalAlgorithm>(
      trees::make_P_decider(p).release());
  SimulationOptions options;
  options.id_universe = 4 * static_cast<local::Id>(p.capital_R());
  options.max_assignments = 500;
  const auto sim = make_oblivious_simulation(decider, options);
  const LabeledGraph yes =
      trees::build_patch_instance(p, trees::subtree_patch(p, 0, 0));
  // The genuine decider accepts under bounded ids...
  Rng rng(3);
  const auto ids = local::make_random_bounded(yes.node_count(), p.f, rng);
  EXPECT_TRUE(
      local::run_local_algorithm(*trees::make_P_decider(p), yes, ids).accepted);
  // ...but its Id-oblivious simulation rejects the same yes-instance: some
  // explored assignment exceeds R(r).
  EXPECT_FALSE(local::run_oblivious(*sim, yes).accepted);
}

// Under (C): simulating an algorithm whose id-dependence is unbounded (the
// Section-3 decider simulates M for Id(v) steps) requires an unbounded
// search; with any finite universe the simulation's verdict flips as the
// universe grows past M's runtime — there is no computable "big enough".
TEST(Simulation, UniverseSizeChangesVerdictForRuntimeBoundedInner) {
  // Inner: reject iff own id >= 50 (a stand-in for "simulation reaches the
  // halting step at id >= runtime").
  auto inner = std::make_shared<local::LambdaAlgorithm>(
      "reject-at-big-id", 0, false, [](const BallView& ball) {
        return ball.center_id() >= 50 ? Verdict::no : Verdict::yes;
      });
  LabeledGraph g = LabeledGraph::uniform(graph::make_path(1),
                                         local::Label{});
  SimulationOptions small;
  small.id_universe = 50;  // never reaches the rejecting region
  small.max_assignments = 200;
  EXPECT_TRUE(local::run_oblivious(*make_oblivious_simulation(inner, small), g)
                  .accepted);
  SimulationOptions large;
  large.id_universe = 51;
  large.max_assignments = 200;
  EXPECT_FALSE(
      local::run_oblivious(*make_oblivious_simulation(inner, large), g)
          .accepted);
}

// A* is memoized like any other algorithm, so its name — the cache key's
// algorithm half — must separate every option that can change a verdict:
// the universe-50 and universe-51 simulations above, decided through one
// shared cache, must still disagree.
TEST(Simulation, SharedCacheKeepsConfigurationsApart) {
  auto inner = std::make_shared<local::LambdaAlgorithm>(
      "reject-at-big-id", 0, false, [](const BallView& ball) {
        return ball.center_id() >= 50 ? Verdict::no : Verdict::yes;
      });
  LabeledGraph g = LabeledGraph::uniform(graph::make_path(1),
                                         local::Label{});
  SimulationOptions small;
  small.id_universe = 50;
  small.max_assignments = 200;
  SimulationOptions large = small;
  large.id_universe = 51;
  const auto small_sim = make_oblivious_simulation(inner, small);
  const auto large_sim = make_oblivious_simulation(inner, large);
  exec::VerdictCache cache;
  const exec::ExecContext ctx{nullptr, &cache};
  EXPECT_TRUE(local::run_oblivious(*small_sim, g, {ctx}).accepted);
  EXPECT_FALSE(local::run_oblivious(*large_sim, g, {ctx}).accepted);
  EXPECT_EQ(cache.stats().entries, 2u);

  SimulationOptions budget = small;
  budget.max_assignments = 201;
  SimulationOptions reseeded = small;
  reseeded.seed = 2;
  EXPECT_NE(make_oblivious_simulation(inner, budget)->name(),
            small_sim->name());
  EXPECT_NE(make_oblivious_simulation(inner, reseeded)->name(),
            small_sim->name());
}

}  // namespace
}  // namespace locald::oblivious
