#include "local/identifiers.h"

#include <unordered_set>

#include "support/check.h"

namespace locald::local {

IdAssignment::IdAssignment(std::vector<Id> ids) : ids_(std::move(ids)) {
  std::unordered_set<Id> seen;
  seen.reserve(ids_.size());
  for (Id id : ids_) {
    LOCALD_CHECK(seen.insert(id).second,
                 "identifier assignment must be one-to-one");
  }
}

Id IdAssignment::of(graph::NodeId v) const {
  LOCALD_CHECK(v >= 0 && v < node_count(), "node out of range");
  return ids_[static_cast<std::size_t>(v)];
}

IdBound::IdBound(std::string name, std::function<Id(Id)> f)
    : name_(std::move(name)), f_(std::move(f)) {}

IdBound IdBound::linear_plus(Id k) {
  return IdBound("n+" + std::to_string(k),
                 [k](Id n) { return n + k; });
}

IdBound IdBound::quadratic() {
  return IdBound("n^2+1", [](Id n) { return n * n + 1; });
}

IdAssignment make_consecutive(graph::NodeId n) {
  std::vector<Id> ids(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    ids[static_cast<std::size_t>(v)] = static_cast<Id>(v);
  }
  return IdAssignment(std::move(ids));
}

IdAssignment make_random_bounded(graph::NodeId n, const IdBound& f, Rng& rng) {
  const Id universe = f(static_cast<Id>(n));
  LOCALD_CHECK(universe >= static_cast<Id>(n),
               "bound f(n) too small for a one-to-one assignment");
  return IdAssignment(rng.sample_distinct(universe,
                                          static_cast<std::size_t>(n)));
}

IdAssignment make_random_unbounded(graph::NodeId n, Id universe, Rng& rng) {
  LOCALD_CHECK(universe >= static_cast<Id>(n),
               "universe too small for a one-to-one assignment");
  return IdAssignment(rng.sample_distinct(universe,
                                          static_cast<std::size_t>(n)));
}

}  // namespace locald::local
