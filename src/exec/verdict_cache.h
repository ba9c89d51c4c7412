// Sharded memoization of deterministic per-ball verdicts.
//
// A deterministic, isomorphism-invariant local algorithm decides every ball
// in a canonical-isomorphism class identically, so the class — named by
// `Ball::canonical_encoding()` — needs deciding once per algorithm. The
// cache maps (algorithm name, canonical encoding) to the verdict; the
// 64-bit `canonical_fingerprint()` picks the shard, and the full encoding
// is the key inside the shard, so fingerprint collisions cost a shard
// detour, never a wrong verdict.
//
// Sharding keeps the cache safe and cheap under the thread pool: each shard
// has its own mutex and map, so concurrent lookups of unrelated balls never
// contend. Hit/miss counters are atomics; note that under parallelism two
// threads can miss the same class concurrently and both insert, so the
// counters (unlike the cached verdicts) are NOT scheduling-deterministic —
// `locald sweep` therefore reports them only in its volatile `--timing`
// section.
//
// Correctness contract for callers: memoize only algorithms whose verdict is
// a pure function of the ball's isomorphism class — deterministic, and
// either id-oblivious or invariant under ball-node renumbering. Randomized
// algorithms must never be memoized (their verdict depends on the coins).
//
// With `attach_store`, a persistent `VerdictStore` becomes the disk tier:
// every insert writes through to the store, a memory miss falls through to
// a store lookup (counted as `store_hits`, and the verdict is promoted back
// into the memory tier), and `clear()` syncs the store before dropping
// entries — so eviction trades memory for a disk detour, never for
// recomputation. `locald serve --store PATH` rides on this to start warm.
// A read-only follower store (`VerdictStore::Role::follower`) skips the
// write-through: the follower's own decisions live only in its memory
// tier, while the single writer's appends arrive via the store's tail
// refresh on the next miss.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace locald::exec {

class VerdictStore;

class VerdictCache {
 public:
  explicit VerdictCache(std::size_t shard_count = 16);

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  // Backs this cache with a persistent store (non-owning; the store must
  // outlive the cache). Call before the cache is shared across threads.
  void attach_store(VerdictStore* store) { store_ = store; }
  VerdictStore* store() const { return store_; }

  // `accepted` for the class named by (algorithm, encoding), if decided.
  std::optional<bool> lookup(std::uint64_t fingerprint,
                             const std::string& algorithm,
                             const std::string& encoding) const;

  void insert(std::uint64_t fingerprint, const std::string& algorithm,
              const std::string& encoding, bool accepted);

  struct Stats {
    std::uint64_t hits = 0;        // answered from the memory tier
    std::uint64_t store_hits = 0;  // answered from the attached store
    std::uint64_t misses = 0;      // answered by neither tier
    std::uint64_t entries = 0;
    double hit_rate() const {
      const std::uint64_t total = hits + store_hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits + store_hits) / total;
    }
  };
  Stats stats() const;

  // Registers this cache's tiers into the process metrics registry under
  // `locald_cache_*`. Callback-based: the registry pulls from the same
  // atomics `stats()` reads, so Prometheus and JSON surfaces always agree.
  // The returned handles own the registration — drop them to unregister
  // (last registration wins when several caches coexist, e.g. server tests).
  std::vector<std::shared_ptr<void>> register_metrics();

  // Drops every memoized verdict; hit/miss counters keep accumulating
  // (they are reported as monotonic metrics). Long-lived owners — the
  // serving layer keeps ONE cache for the whole process — call this when
  // `stats().entries` crosses their memory budget: dropping entries can
  // never change a verdict (memoized == unmemoized is the engine's
  // contract), it only costs re-deciding classes. With a store attached
  // every entry was written through at insert time, so clear() fsyncs the
  // store before dropping — evicted classes are answered from disk, not
  // recomputed.
  void clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, bool> map;
  };

  const Shard& shard_for(std::uint64_t fingerprint) const;
  static std::string key(const std::string& algorithm,
                         const std::string& encoding);

  std::vector<Shard> shards_;
  VerdictStore* store_ = nullptr;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> store_hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace locald::exec
