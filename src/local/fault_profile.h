// Fault profiles: the registry of network-misbehaviour models the
// event-driven runtime (local/event_engine.h) injects into a message-passing
// execution.
//
// The paper's LOCAL model assumes clean synchronous rounds; the follow-up
// literature probes what survives under model perturbations. A fault
// profile is the network-side analogue of a graph family: a named,
// parameterized misbehaviour source with
//  - a parameter schema (names, defaults, valid ranges; support/selector.h),
//    and
//  - a resolved knob set (`FaultKnobs`) the event engine reads — per-hop
//    delay bound, per-attempt loss probability, bounded retransmission
//    attempts, and payload fragmentation.
//
// Determinism contract: a profile never draws randomness itself. The event
// engine draws every delay/loss/fragmentation decision from counter-based
// streams `Rng::stream(seed, plane, index)` keyed by (arc, round, attempt),
// so a faulty schedule is a pure function of (graph, algorithm, profile,
// seed) — call-order- and thread-count-independent like every other
// randomized artifact in locald.
//
// Profiles are picked by the selector grammar `--family` uses
// (support/selector.h), e.g. "drop:per-mille=250,attempts=2", through
// `--faults` and the JSON APIs' `fault_profile` field.
//
// This header also hosts the structural/label mutation operators
// (mutate_label, mutate_add_edge, mutate_swap_labels) that the differential
// fault-injection tests originally defined privately; promoting them here
// makes "perturb an instance" a first-class library operation alongside
// "perturb the network".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "local/labeled_graph.h"
#include "support/rng.h"
#include "support/selector.h"

namespace locald::local {

// The resolved knob set the event engine consumes. The clean profile is the
// default-constructed value: no delay, no loss, one attempt, one fragment.
struct FaultKnobs {
  std::int64_t delay_max = 0;        // extra delivery delay in [0, delay_max]
  std::int64_t loss_per_mille = 0;   // per-attempt drop probability (x/1000)
  std::int64_t attempts = 1;         // transmission attempts per message
  std::int64_t fragments = 1;        // pieces a delivered payload splits into
};

// How fault-profile selectors name themselves in error messages.
inline constexpr SelectorKind kFaultSelector{
    "fault profile", "\"none\" or \"drop:per-mille=250,attempts=2\"",
    "--faults"};

// A registered, parameterized fault profile.
class FaultProfile {
 public:
  using KnobsFn = FaultKnobs (*)(const std::vector<std::int64_t>& values);

  std::string name;
  std::string summary;
  std::vector<ParamSpec> params;
  KnobsFn knobs = nullptr;
};

// A fault-profile selector resolved against the registry.
class FaultProfileInstance : public Resolved<FaultProfile> {
 public:
  using Resolved::Resolved;

  FaultKnobs knobs() const { return entry_->knobs(values_); }
};

// The full registry, in presentation order: none, delay, drop, fragment,
// chaos (see fault_profile.cpp).
const std::vector<FaultProfile>& fault_registry();

// Parse `text` and resolve it against the registry. Throws Error on
// malformed text, an unknown profile or parameter, or an out-of-range value.
FaultProfileInstance resolve_faults_text(const std::string& text);

// --- Instance mutation operators ------------------------------------------
//
// Deterministic given the Rng state; used by the differential fault-
// injection tests and available to any robustness harness.

// Random single-field label perturbation (guaranteed non-zero delta).
LabeledGraph mutate_label(const LabeledGraph& g, Rng& rng);

// Random extra edge between two previously non-adjacent nodes; returns the
// input unchanged when 64 attempts find no non-adjacent pair.
LabeledGraph mutate_add_edge(const LabeledGraph& g, Rng& rng);

// Random label swap between two nodes (keeps the label multiset intact,
// breaks positional consistency).
LabeledGraph mutate_swap_labels(const LabeledGraph& g, Rng& rng);

// Uniformly random choice of the three operators above.
LabeledGraph mutate(const LabeledGraph& g, Rng& rng);

}  // namespace locald::local
