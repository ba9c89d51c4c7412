// The Id-oblivious simulation A* (the (¬B, ¬C) equality) and its failure
// under (B): simulating the Section-2 decider destroys it.
//
//   $ ./oblivious_simulation
#include <iostream>

#include "core/locald.h"

using namespace locald;

int main() {
  // 1. A* reproduces an id-reading but id-independent decider exactly.
  auto reading = std::make_shared<local::LambdaAlgorithm>(
      "agreement-with-ids", 1, false, [](const local::BallView& ball) {
        (void)ball.center_id();  // reads identifiers, never uses them
        const auto x = ball.center_label().at(0);
        for (graph::NodeId w : ball.g.neighbors(ball.center)) {
          if (ball.label(w).at(0) != x) return local::Verdict::no;
        }
        return local::Verdict::yes;
      });
  oblivious::SimulationOptions options;
  options.id_universe = 32;
  const auto sim = oblivious::make_oblivious_simulation(reading, options);
  local::LabeledGraph agree =
      local::LabeledGraph::uniform(graph::make_cycle(8), local::Label{5});
  local::LabeledGraph disagree = agree;
  disagree.set_label(3, local::Label{6});
  std::cout << sim->name() << " under (¬B, ¬C):\n";
  std::cout << "  all-agree cycle:    "
            << (local::run_oblivious(*sim, agree).accepted ? "accept"
                                                           : "reject")
            << "\n";
  std::cout << "  one disagreement:   "
            << (local::run_oblivious(*sim, disagree).accepted ? "accept"
                                                              : "reject")
            << "\n\n";

  // 2. Under (B) the simulation breaks: applied to the Section-2 decider it
  // explores assignments the bounded-id promise forbids and rejects a
  // yes-instance.
  trees::TreeParams p;
  p.r = 2;
  auto sec2 = std::shared_ptr<const local::LocalAlgorithm>(
      trees::make_P_decider(p).release());
  oblivious::SimulationOptions wide;
  wide.id_universe = 4 * static_cast<local::Id>(p.capital_R());
  wide.max_assignments = 400;
  const auto broken = oblivious::make_oblivious_simulation(sec2, wide);
  const auto H = trees::build_patch_instance(p, trees::subtree_patch(p, 0, 0));
  Rng rng(4);
  const auto bounded_ids =
      local::make_random_bounded(H.node_count(), p.f, rng);
  std::cout << "Section-2 decider on a small instance (bounded ids): "
            << (local::run_local_algorithm(*trees::make_P_decider(p), H,
                                           bounded_ids)
                        .accepted
                    ? "accept"
                    : "reject")
            << "\n";
  std::cout << "its Id-oblivious simulation on the same instance:     "
            << (local::run_oblivious(*broken, H).accepted ? "accept"
                                                          : "reject")
            << "   <- the simulation needs (¬B)\n";
  return 0;
}
