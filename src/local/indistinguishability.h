// Ball profiles and the indistinguishability auditor.
//
// An Id-oblivious algorithm with horizon t is a function of the canonical
// class of the stripped ball. Hence, if every radius-t ball of a no-instance
// N already occurs in some yes-instance, then any Id-oblivious t-algorithm
// that accepts all those yes-instances must also accept N: each node of N
// sees a ball on which the algorithm is forced to answer yes. This is the
// engine behind both of the paper's lower bounds (Section 2 directly;
// Section 3 via the neighbourhood generator).
//
// `BallProfile` aggregates the canonical encodings of stripped balls over an
// instance family, built incrementally so that families too large to hold in
// memory (e.g. all of H_r) can be streamed. Membership compares full
// encodings, never hashes: a hash collision must not certify a
// distinguishable no-instance as indistinguishable.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/context.h"
#include "local/algorithm.h"
#include "local/labeled_graph.h"

namespace locald::local {

class BallProfile {
 public:
  explicit BallProfile(int radius) : radius_(radius) {
    LOCALD_CHECK(radius >= 0, "radius must be non-negative");
  }

  int radius() const { return radius_; }

  // Adds the stripped ball of every node of `g`, routed through the bulk
  // census (graph/isomorphism.h) — isomorphic balls canonicalize once, and
  // canonicalizations fan over `ctx.pool` when one is set. Entries are
  // each stripped ball's `canonical_encoding()` at any thread count.
  void add_graph(const LabeledGraph& g, const exec::ExecContext& ctx = {});

  // `encoding` is a stripped ball's `canonical_encoding()`.
  bool contains(const std::string& encoding) const {
    return encodings_.contains(encoding);
  }

  static BallProfile of_graph(const LabeledGraph& g, int radius);

 private:
  int radius_;
  std::unordered_set<std::string> encodings_;
};

struct AuditResult {
  int radius = 0;
  std::size_t nodes_audited = 0;
  std::size_t distinct_balls = 0;
  std::size_t missing = 0;  // balls of the no-instance absent from the profile
  std::vector<graph::NodeId> missing_witnesses;  // up to a few host nodes

  // True certifies: no Id-oblivious algorithm with this horizon can both
  // accept every instance contributing to the profile and reject the
  // audited no-instance.
  bool indistinguishable() const { return missing == 0; }
};

// Checks whether every radius-(profile.radius()) ball of `no_instance`
// occurs in `yes_profile`. The no-instance census runs on `ctx.pool` when
// one is set; results are identical at any thread count.
AuditResult audit_indistinguishability(const LabeledGraph& no_instance,
                                       const BallProfile& yes_profile,
                                       const exec::ExecContext& ctx = {},
                                       std::size_t max_witnesses = 5);

}  // namespace locald::local
