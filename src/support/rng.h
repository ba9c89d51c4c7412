// Deterministic pseudo-random number generation.
//
// All randomness in locald flows through `Rng` so that every experiment,
// test and benchmark is reproducible from a single 64-bit seed. The engine
// is xoshiro256** seeded through splitmix64 (the standard recipe); it is
// small, fast, and has no global state.
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.h"

namespace locald {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform over the full 64-bit range.
  std::uint64_t next_u64();

  // Uniform integer in [0, bound). `bound` must be positive.
  std::uint64_t below(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double uniform01();

  // True with probability p.
  bool bernoulli(double p);

  // Number of fair-coin tosses until (and including) the first head;
  // the geometric draw used by the Corollary-1 decider.
  int coin_tosses_until_head();

  // Counter-based stream derivation: the generator for logical stream
  // (hi, lo) under `seed`, independent of any generator state or call
  // order. This is what makes the parallel execution engine
  // scheduling-deterministic — stream (trial, node) is the same generator
  // no matter which thread reaches it first, so parallel runs are
  // bit-identical to serial ones. Distinct (seed, hi, lo) triples give
  // statistically independent streams (each state word passes through a
  // full splitmix64 avalanche).
  static Rng stream(std::uint64_t seed, std::uint64_t hi,
                    std::uint64_t lo = 0);

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // k distinct values sampled uniformly from [0, n). Requires k <= n.
  std::vector<std::uint64_t> sample_distinct(std::uint64_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
};

}  // namespace locald
