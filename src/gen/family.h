// The workload generator's graph-family registry.
//
// The paper's claims about identifier-free decision quantify over *graph
// families*, not single topologies; gen/ turns families into first-class,
// selectable workload sources. A `Family` is a named, parameterized graph
// builder together with
//  - a parameter schema (names, defaults, valid ranges; support/selector.h),
//  - a size mapping (how the scenario-wide `--size` knob — a target node
//    count — translates into family parameters), and
//  - declared invariants (exact node/edge counts, degree bound,
//    connectivity, bipartiteness) that tests/test_gen.cpp verifies on built
//    instances across sizes and seeds.
//
// Determinism contract: `build(seed)` is a pure function of (family,
// canonical parameters, seed). Randomized families draw exclusively from
// counter-based streams `Rng::stream(seed, stream_id, index)`
// (graph/generators.h), so instances are call-order- and
// scheduling-independent like every other randomized artifact in locald.
//
// Families are picked by the shared selector grammar (support/selector.h),
// e.g. "cycle" or "torus:width=8,height=6", through `--family` and the JSON
// APIs' `family` field.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "support/selector.h"

namespace locald::gen {

// Invariants a family declares for one resolved parameter assignment.
// Tests and the bench workload check every declared field against built
// instances; -1 means "not declared" for the count/bound fields.
struct Invariants {
  std::int64_t node_count = -1;    // exact node count
  std::int64_t edge_count = -1;    // exact edge count
  std::int64_t degree_bound = -1;  // inclusive max degree
  bool connected = false;          // declared always-connected
  bool bipartite = false;          // declared always-bipartite
};

// How family selectors name themselves in error messages.
inline constexpr SelectorKind kFamilySelector{
    "graph family", "\"cycle\" or \"torus:width=8,height=6\"", "--families"};

// A registered, parameterized graph family.
class Family {
 public:
  using InvariantsFn =
      Invariants (*)(const std::vector<std::int64_t>& values);
  using BuildFn = graph::CsrGraph (*)(
      const std::vector<std::int64_t>& values, std::uint64_t seed);
  // `pinned[i]` marks parameters the caller set explicitly: the mapping
  // must derive the free parameters from them (a pinned grid width turns
  // the target into a height), and whatever it writes to a pinned slot is
  // discarded by the resolver.
  using SizeFn = void (*)(std::int64_t size, std::vector<std::int64_t>& values,
                          const std::vector<bool>& pinned);

  std::string name;
  std::string summary;
  std::vector<ParamSpec> params;
  // Does `seed` change the instance? (False for the deterministic
  // topologies; their build ignores the seed entirely.)
  bool randomized = false;
  // Maps the uniform size knob — a target node count — onto `values`
  // (already filled with defaults / explicit assignments; see SizeFn for
  // the pinned mask). Families with logarithmic parameters (hypercube,
  // trees, pyramid) pick the largest instance not exceeding the target.
  SizeFn apply_size = nullptr;
  InvariantsFn declared_invariants = nullptr;
  BuildFn build = nullptr;
};

// A family selector resolved against the registry.
class FamilyInstanceSpec : public Resolved<Family> {
 public:
  using Resolved::Resolved;

  Invariants invariants() const;
  graph::CsrGraph build(std::uint64_t seed) const;
};

// The full registry, in presentation order. At least eight families; see
// gen/registry.cpp for the list.
const std::vector<Family>& family_registry();

// Parse `text` and resolve it against the registry. When `size > 0`, the
// family's size mapping fills the parameters `text` leaves unset. Throws
// Error on malformed text, an unknown family or parameter, or an
// out-of-range value.
FamilyInstanceSpec resolve_family_text(const std::string& text,
                                       std::int64_t size = 0);

}  // namespace locald::gen
