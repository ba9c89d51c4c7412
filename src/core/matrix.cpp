#include "core/matrix.h"

#include "graph/generators.h"
#include "halting/analysis.h"
#include "local/indistinguishability.h"
#include "local/property.h"
#include "local/simulator.h"
#include "oblivious/simulation.h"
#include "props/properties.h"
#include "support/format.h"
#include "tm/zoo.h"
#include "trees/audit.h"
#include "trees/construction.h"
#include "trees/decide.h"

namespace locald::core {

namespace {

// (B): the Section-2 construction separates LD* from LD. Evidence:
//  - the id-based decider is correct on patches and on T_r under every
//    bounded assignment tried;
//  - the coverage audit certifies that every radius-1 ball of T_r occurs in
//    a yes-instance, so no Id-oblivious horizon-1 algorithm accepting all
//    yes-instances rejects T_r.
QuadrantResult bounded_quadrant(bool computable, Rng& rng,
                                const exec::ExecContext& ctx) {
  // Decider runs at r = 2 (T_2 has 8191 nodes); the ball-coverage audit at
  // r = 3 where it is exhaustive-by-witness over 4.2M nodes is sampled.
  trees::TreeParams p;
  p.r = 2;
  p.f = local::IdBound::linear_plus(1);
  QuadrantResult out;
  out.quadrant = computable ? "(B, C)" : "(B, ¬C)";
  out.witness = "Section 2: layered trees T_r vs patches H_r";

  const auto decider = trees::make_P_decider(p);
  const auto property = trees::property_P(p);
  std::vector<local::LabeledGraph> instances;
  instances.push_back(
      trees::build_patch_instance(p, trees::subtree_patch(p, 0, 0)));
  instances.push_back(
      trees::build_patch_instance(p, trees::subtree_patch(p, 5, 4)));
  instances.push_back(trees::build_T(p));
  // Pool only, no cache: every ball's labels carry its T_r coordinates, so
  // no two balls are isomorphic and class-keying one costs more than
  // verifying it.
  const auto report = local::evaluate_decider(
      *decider, *property, instances, local::bounded_policy(p.f), 2, rng,
      {.exec = {.pool = ctx.pool}});

  trees::TreeParams audit_params;
  audit_params.r = 3;
  audit_params.f = local::IdBound::linear_plus(1);
  const auto audit = trees::audit_tree_coverage(audit_params, 20'000, 0, rng);

  out.separated = report.all_correct() && audit.full_patch_coverage();
  out.evidence = cat("LD decider correct on ", report.evaluations,
                     " evaluations; ball coverage ", audit.patch_covered, "/",
                     audit.nodes_audited,
                     " => no Id-oblivious decider exists");
  return out;
}

// (¬B, C): the Section-3 construction. Evidence: the id-based decider is
// correct while every computable Id-oblivious candidate, run through the
// separation algorithm R, misclassifies some machine.
QuadrantResult computable_quadrant(Rng& rng, const exec::ExecContext& ctx) {
  QuadrantResult out;
  out.quadrant = "(¬B, C)";
  out.witness = "Section 3: G(M, r) execution tables + fragments";
  tm::FragmentPolicy policy;
  policy.max_fragments = 150;
  policy.seed = 11;

  const auto property = halting::property_gmr_outputs0(3, policy, false, 4096);
  const auto decider = halting::make_gmr_decider(
      halting::make_gmr_verifier(3, policy, false, 4096));
  std::vector<local::LabeledGraph> instances;
  instances.push_back(
      halting::build_gmr({tm::halt_after(2, 0), 1, 3, policy, false, 4096})
          .graph);
  instances.push_back(
      halting::build_gmr({tm::halt_after(2, 1), 1, 3, policy, false, 4096})
          .graph);
  const auto report =
      local::evaluate_decider(*decider, *property, instances,
                              local::consecutive_policy(), 1, rng, {ctx});

  std::vector<std::pair<std::string,
                        std::unique_ptr<local::LocalAlgorithm>>> candidates;
  candidates.emplace_back(
      "structure-only",
      halting::candidate_structure_only(3, policy, false, 4096));
  candidates.emplace_back(
      "simulate-2",
      halting::candidate_bounded_simulation(3, policy, false, 4096, 2));
  std::vector<tm::TuringMachine> machines;
  machines.push_back(tm::halt_after(1, 0));
  machines.push_back(tm::halt_after(1, 1));
  machines.push_back(tm::halt_after(4, 1));
  const auto rows = halting::run_separation_experiment(
      candidates, machines, 1, 3, policy, false, 4096, {ctx});
  int fooled = 0;
  for (const auto& row : rows) {
    fooled += row.misclassified;
  }
  out.separated = report.all_correct() && fooled >= 2;
  out.evidence = cat("LD decider correct; ", fooled, "/", rows.size(),
                     " separator runs misclassified (every computable "
                     "candidate fooled)");
  return out;
}

// (¬B, ¬C): the Id-oblivious simulation A* reproduces an id-reading (but
// id-independent) decider verbatim, so LD* = LD.
QuadrantResult unrestricted_quadrant(Rng& rng, const exec::ExecContext& ctx,
                                     int instances,
                                     const InstanceSource& source) {
  QuadrantResult out;
  out.quadrant = "(¬B, ¬C)";
  out.witness = "Id-oblivious simulation A*";
  // An id-READING proper-3-colouring decider (reads ids, output does not
  // depend on them).
  auto reading = std::make_shared<local::LambdaAlgorithm>(
      "coloring-with-ids", 1, false, [](const local::BallView& ball) {
        (void)ball.center_id();  // reads, never uses
        const auto c = ball.center_label().at(0);
        if (c < 0 || c >= 3) return local::Verdict::no;
        for (graph::NodeId w : ball.g.neighbors(ball.center)) {
          if (ball.label(w).at(0) == c) return local::Verdict::no;
        }
        return local::Verdict::yes;
      });
  oblivious::SimulationOptions options;
  options.id_universe = 64;
  options.max_assignments = 5'000;
  options.pool = ctx.pool;
  const auto simulated = oblivious::make_oblivious_simulation(reading, options);
  const auto property = props::proper_coloring_property(3);

  int agreements = 0;
  int cases = 0;
  for (int trial = 0; trial < instances; ++trial) {
    local::LabeledGraph g(source ? source(trial)
                                 : graph::make_random_connected(
                                       8, 4, rng.next_u64()));
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      g.set_label(v, local::Label{static_cast<std::int64_t>(rng.below(3))});
    }
    const bool truth = property->contains(g);
    const bool sim = local::run_oblivious(*simulated, g, {ctx}).accepted;
    ++cases;
    agreements += (truth == sim);
  }
  out.equal = agreements == cases;
  out.evidence = cat("A* agrees with the global oracle on ", agreements, "/",
                     cases, " random instances");
  return out;
}

}  // namespace

std::vector<QuadrantResult> evaluate_separation_matrix(
    std::uint64_t seed, const exec::ExecContext& ctx, int a_star_instances,
    const InstanceSource& instances) {
  Rng rng(seed);
  std::vector<QuadrantResult> out;
  out.push_back(bounded_quadrant(/*computable=*/true, rng, ctx));
  out.push_back(bounded_quadrant(/*computable=*/false, rng, ctx));
  out.push_back(computable_quadrant(rng, ctx));
  out.push_back(unrestricted_quadrant(
      rng, ctx, a_star_instances > 0 ? a_star_instances : 12, instances));
  return out;
}

}  // namespace locald::core
