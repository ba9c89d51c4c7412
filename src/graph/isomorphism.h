// Canonical forms for vertex-labelled graphs — the two-tier
// canonicalization engine behind every cache-keyed path in locald.
//
// The indistinguishability arguments of the paper compare radius-t balls up
// to label-preserving isomorphism: an Id-oblivious algorithm is exactly a
// function of the ball's isomorphism class. `canonical_form` computes a
// complete invariant — two labelled graphs have equal encodings if and only
// if they are isomorphic by a label-preserving bijection.
//
// Everything here consumes `CsrSpan` (graph/csr.h): whole graphs and
// scratch-backed ball slices run through the same engine with no copies.
//
// Tier 1 is fast colour refinement (1-WL) on partition-refinement data
// structures: per-round rank assignment over flat signature arenas instead
// of per-round `std::map` rebuilds, with all scratch shared across the
// whole search. The stable partition doubles as a cheap certificate
// (`wl_certificate`): equal certificates are necessary (never sufficient)
// for isomorphism, so certificate buckets bound which graphs can collide.
//
// Tier 2 is individualization–refinement over the first smallest
// non-singleton colour class, taking the lexicographically least leaf
// encoding — upgraded with automorphism discovery and orbit pruning:
//  - twin pruning: cell members with identical open or closed
//    neighbourhoods are interchangeable by a transposition that fixes
//    everything else, so only one per twin class is branched on (a star's
//    k interchangeable leaves cost one branch instead of k! orderings);
//  - leaf automorphisms: two leaves with equal encodings certify an
//    automorphism; discovered generators merge branch targets into orbits
//    (same orbit ⇒ same subtree encodings ⇒ skip), and the search unwinds
//    to the divergence level whose subtree the automorphism maps onto an
//    already-explored sibling.
// Symmetric inputs therefore cost near-linear in the orbit structure of
// the automorphism group instead of factorial in cell sizes.
//
// `canonical_census` is the bulk API: one call canonicalizes the radius-t
// ball of every host node. Balls are extracted as zero-copy slices from
// per-thread `BallScratch` arenas, deduplicated by a structural hash that
// takes one 64-bit word per step (no per-node key strings — the census
// holds O(classes) encodings, not O(n), which is what lets it run at
// 10^6–10^7 host nodes), and each distinct structure is canonicalized
// exactly once — parallelized over the exec `ThreadPool` with
// byte-identical output at any thread count. Each ball is extracted once
// and verified while it is hashed: fixed blocks of consecutive nodes keep
// the first ball per hash as a witness, and later same-hash balls of the
// block are compared with it on the spot. Only the witnesses that are not
// their group's first ball, and the balls too large to hold, are compared
// with that first ball afterwards. Census encodings agree byte-for-byte
// with per-ball `canonical_form` on centre-marked payloads.
//
// The tier-2 search is intended for the small graphs this project compares
// (balls, fragments); the census host graph can be millions of nodes.
// Labels carried as opaque byte payloads are embedded verbatim in the
// encoding, so no hash collisions can merge distinct labels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.h"

namespace locald::exec {
class ThreadPool;
}  // namespace locald::exec

namespace locald::graph {

struct CanonicalForm {
  // order[i] = original node placed at canonical position i.
  std::vector<NodeId> order;
  // Complete invariant: equal encoding <=> label-preserving isomorphic.
  std::string encoding;
  // FNV-1a of `encoding`; convenient hash-map key.
  std::uint64_t fingerprint = 0;
};

// Search effort counters of one `canonical_form` call (exposed so tests can
// pin the orbit pruning down: a symmetric input whose naive search visits
// k! leaves must stay under a tight budget).
struct CanonicalStats {
  std::size_t leaves = 0;             // discrete colourings encoded
  std::size_t nodes = 0;              // search-tree nodes visited
  std::size_t automorphisms = 0;      // generators discovered at leaves
  std::size_t orbit_prunes = 0;       // branches skipped as orbit duplicates
  std::size_t twin_prunes = 0;        // branches skipped as cell twins
  std::size_t refinement_rounds = 0;  // colour-refinement rounds run
};

// `payloads[v]` is the label of node v as opaque bytes (may be empty).
// Throws locald::Error if the search would exceed `max_leaves` discrete
// orderings (pathologically symmetric inputs beyond what the orbit pruning
// can collapse). `stats`, when non-null, receives the search counters.
CanonicalForm canonical_form(CsrSpan g,
                             const std::vector<std::string>& payloads,
                             std::size_t max_leaves = 1 << 20,
                             CanonicalStats* stats = nullptr);

// Convenience: all payloads empty (pure topology).
CanonicalForm canonical_form(CsrSpan g, std::size_t max_leaves = 1 << 20);

// Tier-1 certificate: the stable 1-WL colouring as an isomorphism-invariant
// string. Equal on isomorphic inputs; cheap (no search); NOT complete —
// non-isomorphic graphs may share a certificate, which is exactly when the
// tier-2 search earns its keep. canonical_form-equal graphs always share a
// certificate.
std::string wl_certificate(CsrSpan g,
                           const std::vector<std::string>& payloads);

// Bulk ball census over a host graph: the canonical class of B(v, radius)
// for every host node v, centre-marked ("C"/"N" payload prefixes, matching
// local::Ball's stripped-ball payload scheme) so the centre is
// distinguished. `payloads[v]` contributes the host node's label bytes to
// every ball containing v. An empty `payloads` means pure topology and
// costs no per-node memory; a non-empty one needs exactly one entry per
// host node. Both give the same classes and encodings as n empty strings.
struct BallCensusResult {
  // class_of[v] = dense class id of node v's ball, numbered by first
  // occurrence in node order; class_representative[c] = the first host
  // node (in node order) whose ball is in class c. Consumers decide once
  // per class and scatter over members.
  std::vector<std::size_t> class_of;
  std::vector<NodeId> class_representative;
  // class_encoding[c] = canonical encoding of class c's ball;
  // byte-identical to canonical_form on the extracted ball. Kept per
  // class, not per node: at census scale the per-node copy was the
  // dominant memory cost.
  std::vector<std::string> class_encoding;
  // Number of distinct encodings (= isomorphism classes of balls).
  std::int64_t distinct = 0;
  // Balls that were byte-identical as extracted and skipped the search.
  std::size_t raw_duplicates = 0;
  // Distinct extracted structures actually canonicalized.
  std::size_t unique_structures = 0;

  const std::string& encoding_of(NodeId v) const {
    return class_encoding[class_of[static_cast<std::size_t>(v)]];
  }
};

// Deterministic at every thread count: the ball population, the dedup, and
// each structure's canonical form are pure functions of (host, payloads,
// radius), and `pool` only changes who computes what. Null pool = serial.
BallCensusResult canonical_census(const CsrGraph& host,
                                  const std::vector<std::string>& payloads,
                                  int radius, exec::ThreadPool* pool = nullptr,
                                  std::size_t max_leaves = 1 << 20);

// Monotonic process-wide canonicalization counters (surfaced by the
// server's /v1/metrics). Counts work done, not work saved: a census ball
// answered by raw dedup increments census_raw_hits instead of forms.
struct CanonicalizationCounters {
  std::uint64_t forms = 0;            // canonical_form searches run
  std::uint64_t census_balls = 0;     // balls passed through canonical_census
  std::uint64_t census_raw_hits = 0;  // census balls answered by raw dedup
};
CanonicalizationCounters canonicalization_counters();

bool isomorphic(CsrSpan a, const std::vector<std::string>& payload_a,
                CsrSpan b, const std::vector<std::string>& payload_b);

bool isomorphic(CsrSpan a, CsrSpan b);

}  // namespace locald::graph
