#include "local/property.h"

#include "support/format.h"

namespace locald::local {

IdPolicy consecutive_policy() {
  return [](graph::NodeId n, Rng&) { return make_consecutive(n); };
}

IdPolicy bounded_policy(IdBound f) {
  return [f = std::move(f)](graph::NodeId n, Rng& rng) {
    return make_random_bounded(n, f, rng);
  };
}

DeciderReport evaluate_decider(const LocalAlgorithm& alg,
                               const Property& property,
                               const std::vector<LabeledGraph>& instances,
                               const IdPolicy& policy,
                               int assignments_per_instance, Rng& rng,
                               const RunOptions& options) {
  LOCALD_CHECK(assignments_per_instance >= 1,
               "need at least one assignment per instance");
  DeciderReport report;
  report.algorithm = alg.name();
  report.property = property.name();
  report.instances = static_cast<int>(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const LabeledGraph& inst = instances[i];
    const bool member = property.contains(inst);
    for (int a = 0; a < assignments_per_instance; ++a) {
      const IdAssignment ids = policy(inst.node_count(), rng);
      ++report.evaluations;
      const RunResult run = run_local_algorithm(alg, inst, ids, options);
      if (run.accepted != member) {
        DeciderFailure f;
        f.instance_index = i;
        f.expected_member = member;
        f.accepted = run.accepted;
        f.detail = cat("instance ", i, " (n=", inst.node_count(), "): ",
                       member ? "yes-instance rejected" :
                                "no-instance accepted",
                       run.first_rejecting.has_value()
                           ? cat(" (first rejecting node ",
                                 *run.first_rejecting, ")")
                           : std::string());
        report.failures.push_back(std::move(f));
      }
    }
  }
  return report;
}

}  // namespace locald::local
