// Tests for the example property (proper colouring): oracle correctness and
// oracle/decider agreement over deterministic and randomized instances.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "local/property.h"
#include "local/simulator.h"
#include "props/properties.h"

namespace locald::props {
namespace {

using local::LabeledGraph;
using local::Label;

LabeledGraph colored_cycle(graph::NodeId n, const std::vector<int>& colors) {
  LabeledGraph g = LabeledGraph::uniform(graph::make_cycle(n), Label{});
  for (graph::NodeId v = 0; v < n; ++v) {
    g.set_label(v, Label{colors[static_cast<std::size_t>(v) % colors.size()]});
  }
  return g;
}

TEST(Coloring, OracleAcceptsProperRejectsImproper) {
  const auto prop = proper_coloring_property(3);
  EXPECT_TRUE(prop->contains(colored_cycle(6, {0, 1})));
  EXPECT_FALSE(prop->contains(colored_cycle(6, {0, 0})));
  // Colour out of range.
  EXPECT_FALSE(prop->contains(colored_cycle(6, {0, 5})));
  // Odd cycle cannot be 2-coloured with alternating pattern of period 2.
  EXPECT_FALSE(proper_coloring_property(2)->contains(colored_cycle(5, {0, 1})));
}

TEST(Coloring, DeciderAgreesWithOracle) {
  const auto prop = proper_coloring_property(3);
  const auto dec = proper_coloring_decider(3);
  locald::Rng rng(21);
  std::vector<LabeledGraph> instances;
  instances.push_back(colored_cycle(6, {0, 1, 2}));
  instances.push_back(colored_cycle(6, {0, 1}));
  instances.push_back(colored_cycle(5, {0, 1}));
  instances.push_back(colored_cycle(7, {0, 0, 1}));
  for (int trial = 0; trial < 10; ++trial) {
    LabeledGraph g(graph::make_random_connected(
        12, 6, 2100 + static_cast<std::uint64_t>(trial)));
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      g.set_label(v, Label{static_cast<std::int64_t>(rng.below(4))});
    }
    instances.push_back(std::move(g));
  }
  const auto report = local::evaluate_decider(
      *dec, *prop, instances, local::consecutive_policy(), 1, rng);
  EXPECT_TRUE(report.all_correct()) << report.failures.size() << " failures";
}

// The colouring decider is an honest member of LD*: its outputs cannot
// depend on identifiers because the framework strips them. This sweep
// confirms no per-node output changes across random id assignments.
class ObliviousSweep
    : public ::testing::TestWithParam<int> {};

TEST_P(ObliviousSweep, NoIdDependence) {
  const std::uint64_t seed = 23 + static_cast<std::uint64_t>(GetParam());
  locald::Rng rng(seed);
  LabeledGraph g(graph::make_random_connected(12, 8, seed));
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    g.set_label(v, Label{static_cast<std::int64_t>(rng.below(3))});
  }
  const auto alg = proper_coloring_decider(3);
  const auto probe =
      local::probe_id_dependence(*alg, g, 1'000'000, 6, {{}, seed});
  EXPECT_FALSE(probe.some_node_output_changed) << alg->name();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObliviousSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace locald::props
