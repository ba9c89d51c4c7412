// Full-information gathering: the message-passing view of the LOCAL model.
//
// Section 1.2 notes that a local algorithm with horizon t is equivalent to a
// distributed algorithm running t (± 1) synchronous rounds: nodes exchange
// unbounded messages with neighbours, then output. This module provides the
// protocol behind that equivalence:
//
//  - `gather_knowledge`: the canonical flooding protocol. Each node floods
//    (id, label, adjacency) knowledge for horizon + 1 rounds, then
//    reconstructs (G, x, Id) |` B(v, t) exactly from what it heard.
//  - The knowledge codec and `ball_from_knowledge`, the protocol's payload
//    and its output step.
//
// One runtime drives the protocol: the event engine (local/event_engine.h)
// simulates which (round, arc) messages arrive, and the gather pass runs the
// rounds over that delivery mask. Under the `none` profile every message
// arrives in its synchronous slot, so the run IS the paper's lockstep
// rounds; `run_via_message_passing` names that case. Tests assert it
// reproduces direct ball evaluation verbatim —
// the equivalence the paper appeals to.
//
// The protocol uses identifiers as transport addresses during flooding. For
// an Id-oblivious algorithm the reconstructed ball is stripped before
// evaluation, so obliviousness remains framework-enforced.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "local/algorithm.h"
#include "local/labeled_graph.h"

namespace locald::local {

// What one node knows about another after flooding.
struct KnownNode {
  Id id = 0;
  Label label;
  std::vector<Id> adj;  // full adjacency, as ids (may mention unknown nodes)

  bool operator==(const KnownNode&) const = default;
};

using Knowledge = std::map<Id, KnownNode>;

// Serialization used as message payload (exercised directly by tests).
std::string encode_knowledge(Id self, const Knowledge& k);
std::pair<Id, Knowledge> decode_knowledge(const std::string& payload);

// Rebuilds the induced radius-t ball around `self` from flooded knowledge.
// Only information actually contained in the knowledge map is used.
Ball ball_from_knowledge(Id self, const Knowledge& k, int radius);

// t + 1 rounds assemble the exact induced radius-t ball (the paper's
// "t +- 1 rounds" equivalence): edges between two distance-t nodes are only
// reported after those nodes learned their own adjacency in round 1.
inline int gather_rounds(int horizon) { return horizon + 1; }

// The gather pass: runs gather_rounds(horizon) rounds of flooding over `g`
// and returns each node's final knowledge in wire form,
// `encode_knowledge(self, k)`, which is also the message a node broadcasts
// each round. delivered[r * arcs + offsets[v] + p] (CSR arc offsets of `g`)
// says whether v heard its port-p neighbour in round r. A lost message
// teaches nothing that round; knowledge merges by union, so a neighbour
// heard in another round still lands in the adjacency.
std::vector<std::string> gather_knowledge(const LabeledGraph& g,
                                          const IdAssignment& ids,
                                          int horizon,
                                          const std::vector<bool>& delivered);

// `alg` through clean lockstep flooding: the event engine under the `none`
// profile. Produces the same outputs as run_local_algorithm (tested
// equivalence).
std::vector<Verdict> run_via_message_passing(const LocalAlgorithm& alg,
                                             const LabeledGraph& g,
                                             const IdAssignment& ids);

}  // namespace locald::local
