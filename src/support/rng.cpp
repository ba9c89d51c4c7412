#include "support/rng.h"

#include <unordered_set>

namespace locald {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) {
    s = splitmix64(x);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  LOCALD_CHECK(bound > 0, "Rng::below requires a positive bound");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  LOCALD_CHECK(lo <= hi, "Rng::range requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  return uniform01() < p;
}

int Rng::coin_tosses_until_head() {
  int tosses = 1;
  while ((next_u64() & 1) == 0) {
    ++tosses;
  }
  return tosses;
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t hi, std::uint64_t lo) {
  // Fold the counters into the splitmix sequence one at a time so that
  // (seed, hi, lo) triples differing in any coordinate diverge immediately;
  // multiplying by large odd constants keeps consecutive counters far apart
  // before the avalanche.
  std::uint64_t x = seed;
  x ^= splitmix64(x) + hi * 0xa24baed4963ee407ULL;
  x ^= splitmix64(x) + lo * 0x9fb21c651e98df25ULL;
  Rng out(0);
  for (auto& s : out.s_) {
    s = splitmix64(x);
  }
  return out;
}

std::vector<std::uint64_t> Rng::sample_distinct(std::uint64_t n,
                                                std::size_t k) {
  LOCALD_CHECK(k <= n, "cannot sample more distinct values than the range");
  std::vector<std::uint64_t> out;
  out.reserve(k);
  if (k * 2 >= n) {
    // Dense case: shuffle a prefix of the identity permutation.
    std::vector<std::uint64_t> all(n);
    for (std::uint64_t i = 0; i < n; ++i) all[i] = i;
    shuffle(all);
    all.resize(k);
    return all;
  }
  std::unordered_set<std::uint64_t> seen;
  while (out.size() < k) {
    const std::uint64_t v = below(n);
    if (seen.insert(v).second) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace locald
