// Internals of `canonical_census` (graph/isomorphism.h), exposed so tests
// can force hash collisions and watch which verification paths run. Only
// tests include this header; no command, flag or environment variable
// reaches it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/ball_slice.h"
#include "graph/isomorphism.h"

namespace locald::graph::census_detail {

// Stage 1 walks the host in fixed blocks of this many consecutive nodes.
inline constexpr std::size_t kBlockNodes = 1024;
// A block holds witness slices up to this many 32-bit words in total
// (offsets + adjacency + local-to-host map), 64 KiB, so the witnesses stay
// in cache; a ball that would overflow it is checked against its
// representative after stage 1 instead.
inline constexpr std::size_t kWitnessWords = std::size_t{1} << 14;

// Structural hash of an extracted slice. Equal slices must hash equal; the
// value never reaches output. `payloads` is null when every host node
// carries the same bytes (or none), which then tell balls apart no further.
using SliceHash = std::uint64_t (*)(const BallSlice&,
                                    const std::vector<std::string>* payloads);

// The hash `canonical_census` uses.
std::uint64_t slice_hash(const BallSlice& s,
                         const std::vector<std::string>* payloads);

// Which verification paths one census took.
struct CensusPaths {
  std::size_t deferred_checks = 0;  // balls checked after stage 1
  bool stage1_mismatch = false;     // a ball differed from its block witness
  bool deferred_mismatch = false;   // a deferred check failed
};

// `canonical_census` with the slice hash as a parameter. `paths`, when
// non-null, receives the verification paths taken.
BallCensusResult census_with_hash(const CsrGraph& host,
                                  const std::vector<std::string>& payloads,
                                  int radius, exec::ThreadPool* pool,
                                  std::size_t max_leaves, SliceHash hash,
                                  CensusPaths* paths = nullptr);

}  // namespace locald::graph::census_detail
