// Identifier assignments Id : V(G) -> N and the bounded-identifier
// assumption (B).
//
// Under (B) there is a function f with Id(v) < f(n) on every n-node input;
// the paper's Section-2 separation hinges on identifiers leaking a lower
// bound on n precisely because f pins them down. `IdBound` carries such an f.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "support/rng.h"

namespace locald::local {

using Id = std::uint64_t;

// One-to-one identifier assignment for nodes [0, n).
class IdAssignment {
 public:
  IdAssignment() = default;
  explicit IdAssignment(std::vector<Id> ids);

  graph::NodeId node_count() const {
    return static_cast<graph::NodeId>(ids_.size());
  }

  Id of(graph::NodeId v) const;

  const std::vector<Id>& raw() const { return ids_; }

 private:
  std::vector<Id> ids_;
};

// The bound f of assumption (B). Monotone non-decreasing with f(n) >= n
// (any one-to-one assignment into [0, f(n)) needs at least n values).
class IdBound {
 public:
  IdBound(std::string name, std::function<Id(Id)> f);

  const std::string& name() const { return name_; }
  Id operator()(Id n) const { return f_(n); }

  // f(n) = n + k. k = 1 is the tightest legal bound: ids are a permutation
  // of a subset of [0, n].
  static IdBound linear_plus(Id k);
  // f(n) = n^2 + 1.
  static IdBound quadratic();

 private:
  std::string name_;
  std::function<Id(Id)> f_;
};

// ids 0..n-1 in node order — the minimal assignment.
IdAssignment make_consecutive(graph::NodeId n);

// n distinct ids drawn uniformly from [0, f(n)) — assumption (B).
IdAssignment make_random_bounded(graph::NodeId n, const IdBound& f, Rng& rng);

// n distinct ids from [0, universe) for a large caller-chosen universe —
// the finite stand-in for assumption (¬B).
IdAssignment make_random_unbounded(graph::NodeId n, Id universe, Rng& rng);

}  // namespace locald::local
