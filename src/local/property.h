// Labelled graph properties and the decider-evaluation harness.
//
// A `Property` is the global ground truth ("is (G, x) in P?"). The harness
// runs a candidate local decider against instance families under an
// identifier policy and reports completeness (all yes-instances accepted
// under every tried assignment) and soundness (all no-instances rejected).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "local/algorithm.h"
#include "local/simulator.h"

namespace locald::local {

class Property {
 public:
  virtual ~Property() = default;
  virtual std::string name() const = 0;
  virtual bool contains(const LabeledGraph& instance) const = 0;
};

class LambdaProperty final : public Property {
 public:
  using Fn = std::function<bool(const LabeledGraph&)>;

  LambdaProperty(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  std::string name() const override { return name_; }
  bool contains(const LabeledGraph& instance) const override {
    return fn_(instance);
  }

 private:
  std::string name_;
  Fn fn_;
};

// Produces the identifier assignment(s) a decider is evaluated under.
using IdPolicy = std::function<IdAssignment(graph::NodeId n, Rng& rng)>;

IdPolicy consecutive_policy();
IdPolicy bounded_policy(IdBound f);

struct DeciderFailure {
  std::size_t instance_index = 0;
  bool expected_member = false;
  bool accepted = false;
  std::string detail;
};

struct DeciderReport {
  std::string algorithm;
  std::string property;
  int instances = 0;
  int evaluations = 0;  // instances x assignments
  std::vector<DeciderFailure> failures;

  bool all_correct() const { return failures.empty(); }
};

// Checks the decision rule of Section 1.2 on every instance:
// member => accepted under every assignment; non-member => rejected under
// every assignment. Assignments are drawn from `rng` in (instance,
// assignment) order; `options` says how each run executes.
DeciderReport evaluate_decider(const LocalAlgorithm& alg,
                               const Property& property,
                               const std::vector<LabeledGraph>& instances,
                               const IdPolicy& policy,
                               int assignments_per_instance, Rng& rng,
                               const RunOptions& options = {});

}  // namespace locald::local
