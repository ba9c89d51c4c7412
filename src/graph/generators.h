// Deterministic graph family generators.
//
// These back the instance families of the paper's experiments: cycles for
// the promise problems, grids for Turing-machine execution tables, layered
// trees for the Section-2 construction, plus generic families used by
// tests, benchmarks, and the gen/ workload generator.
//
// Every builder emits an edge list and returns the immutable `CsrGraph`
// that `CsrGraph::from_edges` freezes from it — one counting pass and one
// scatter pass, no per-edge sorted inserts, which is what makes the
// 10^6–10^7-node bench cells build in milliseconds.
//
// Randomized builders are seed-based (`std::uint64_t seed`): every random
// draw is derived from a counter-based stream
// `Rng::stream(seed, stream_id, index)`, so the instance is a pure function
// of (seed, parameters) — independent of call order, thread scheduling, and
// whatever else the process drew before. (The legacy stateful `Rng&`
// overloads, which produced order-dependent instances from a shared
// sequential generator, are gone; derive a fresh seed per instance
// instead.)
#pragma once

#include <cstdint>

#include "graph/csr.h"
#include "support/rng.h"

namespace locald::graph {

// Stream-id constants for the seed-based builders: each family draws from
// its own `Rng::stream(seed, kStream*, index)` plane, so two families built
// from the same seed never share coins.
inline constexpr std::uint64_t kStreamGnp = 0x01;
inline constexpr std::uint64_t kStreamRandomTree = 0x02;
inline constexpr std::uint64_t kStreamRandomChords = 0x03;
inline constexpr std::uint64_t kStreamRandomRegular = 0x04;

CsrGraph make_path(NodeId n);
CsrGraph make_cycle(NodeId n);        // n >= 3
CsrGraph make_complete(NodeId n);

// K_{a,b}: parts {0..a-1} and {a..a+b-1}, every cross pair joined. K_{1,n}
// is the n-leaf star with hub 0.
CsrGraph make_complete_bipartite(NodeId a, NodeId b);

// width x height grid; node (x, y) has id y * width + x.
CsrGraph make_grid(NodeId width, NodeId height);

// Same, with wraparound edges in both dimensions (requires dim >= 3).
CsrGraph make_torus(NodeId width, NodeId height);

// Complete `arity`-ary tree of `depth` levels below the root, heap-indexed:
// children of v are arity*v + 1 .. arity*v + arity. arity = 2 is the
// complete binary tree (2^(depth+1) - 1 nodes; children of v are 2v+1, 2v+2).
CsrGraph make_balanced_tree(NodeId arity, int depth);

// Caterpillar: a spine path of `spine` nodes (ids 0..spine-1), each spine
// node carrying `legs` leaves (appended after the spine in spine order).
CsrGraph make_caterpillar(NodeId spine, NodeId legs);

// Complete binary tree of given depth where consecutive nodes of each level
// are additionally joined by a path — the "layered tree" of Section 2
// (Figure 1). Heap indexing as above: level y spans ids [2^y - 1, 2^(y+1) - 2].
CsrGraph make_layered_tree(int depth);

// Node v's neighbours in make_layered_tree(depth), ascending: its parent,
// its level predecessor and successor, its children. The one definition of
// the layered tree's adjacency — make_layered_tree is built from it, and
// the Section-2 audit reads single neighbourhoods of T_r off it without
// materializing the tree.
std::vector<NodeId> layered_tree_neighbors(int depth, NodeId v);

// d-dimensional hypercube (2^d nodes).
CsrGraph make_hypercube(int dims);

// Erdős–Rényi G(n, p); row u's coins come from stream (seed, kStreamGnp, u).
CsrGraph make_random_gnp(NodeId n, double p, std::uint64_t seed);

// Uniform random labelled tree via a Prüfer-like attachment; node v's
// parent comes from stream (seed, kStreamRandomTree, v).
CsrGraph make_random_tree(NodeId n, std::uint64_t seed);

// Connected random graph: random tree plus `extra_edges` random chords,
// chord attempt i drawn from stream (seed, kStreamRandomChords, i).
CsrGraph make_random_connected(NodeId n, NodeId extra_edges,
                               std::uint64_t seed);

// Random d-regular graph via the pairing (configuration) model: n*d stubs
// are shuffled with stream (seed, kStreamRandomRegular, round) and paired
// consecutively; rounds producing a loop or a duplicate edge are discarded
// wholesale and redrawn, so the accepted pairing is uniform over simple
// pairings and a pure function of (n, d, seed). Requires 0 <= d < n and
// n * d even. Per-round acceptance is ~exp(-(d*d - 1)/4), so keep d <= 5
// (the gen/ family schema's bound) — there the retry budget fails with
// probability ~e^-50; beyond it, Error becomes the expected outcome.
CsrGraph make_random_regular(NodeId n, NodeId d, std::uint64_t seed);

// Position helpers for heap-indexed complete binary trees.
struct TreeIndex {
  // Level (root = 0) and offset within the level of heap node id v.
  static int level(NodeId v);
  static std::int64_t offset(NodeId v);
  // Heap id of the node at (level, offset).
  static NodeId id(int level, std::int64_t offset);
};

}  // namespace locald::graph
