// Persistent, checksummed append-log store for canonical-class verdicts.
//
// A verdict is a pure function of (algorithm, canonical ball encoding), so
// it is the ideal durable artifact: once decided it is correct forever, and
// a restarted server can answer from disk what a cold one would recompute.
// The store is the disk tier under `VerdictCache` (attach_store): cache
// inserts append write-through, cache misses fall through to the store, and
// hits promote back into memory — `locald serve --store PATH` starts warm.
//
// Layout: `PATH/` is a directory of per-shard append logs, sharded by the
// same fingerprint discipline `VerdictCache` uses (fingerprint mod shard
// count picks the file), so independent classes never contend on one lock
// or one file. Each shard file is
//
//   header  : "LDVS" magic, u32 version, u32 shard index, u32 shard count
//   record* : u32 checksum   — 32-bit fold of FNV-1a over the rest
//             u32 algo_len, u32 enc_len
//             u8 verdict, u8 pad[3]
//             algo_len bytes algorithm name, enc_len bytes encoding
//
// (platform-endian: the store is a per-host cache, not an interchange
// format). Appends are plain write()s under the shard lock, so a crash can
// tear at most the final record; a failed partial append (ENOSPC, ...) is
// rolled back with ftruncate before the error propagates, so the log never
// carries torn bytes in its interior. Recovery on open memory-maps each
// shard and walks it: a truncated or garbage tail is dropped (the file is
// truncated back to the last whole record), and a record whose checksum
// fails is quarantined — skipped by its declared length, costing exactly
// that record and nothing after it.
//
// Multi-process sharing is single-writer / many-reader. The writer (the
// default role) holds an exclusive fcntl open-file-description write lease
// on `PATH/LOCK` for its whole life; a second writer on the same directory
// fails fast at open with a clear error instead of interleaving appends.
// Followers (`Role::follower`) never take the lease: they open shards
// read-only through private mmaps and pick up the writer's appends lazily —
// records are append-only and immutable, so when a lookup misses the
// follower re-scans the grown tail past its high-water offset (remapping
// the shard) and indexes whatever complete, checksum-valid records landed
// since. A record the writer is still mid-write() simply fails the scan's
// checksum or length check and is retried on the next miss; the follower
// never truncates, so a writer crash leaves it serving the last good
// prefix until a restarted writer repairs the tail.
//
// Lookups verify key bytes against the log (the in-memory index maps a
// 64-bit key hash to a file offset, keeping resident memory at ~16 bytes
// per record with the mmap as the backing key storage), so a hash collision
// costs a detour, never a wrong verdict — the same contract the cache's
// fingerprint sharding keeps.
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

class VerdictStore {
 public:
  enum class Role {
    writer,    // exclusive appender; owns the PATH/LOCK write lease
    follower,  // read-only; observes the writer's appends via tail refresh
  };

  // Opens the sharded store in directory `path` (creating it in writer
  // mode; a follower requires an existing, writer-initialized store).
  // Throws `Error` when the directory or a shard cannot be opened, when an
  // existing store declares a different shard count or version, when
  // `shard_count` is outside [1, 256], or when another live writer already
  // holds the write lease.
  explicit VerdictStore(std::string path, std::size_t shard_count = 16,
                        Role role = Role::writer);
  ~VerdictStore();

  VerdictStore(const VerdictStore&) = delete;
  VerdictStore& operator=(const VerdictStore&) = delete;

  // The verdict persisted for (algorithm, encoding), if any. `fingerprint`
  // picks the shard exactly as in VerdictCache::lookup. In follower mode a
  // miss against the in-memory index triggers a tail refresh — the shard is
  // remapped and any records the writer appended past the follower's
  // high-water offset are indexed — before the miss is final. The refresh
  // happens only if the shard file changed since the follower last walked
  // it, so a record the walk cannot pass does not cost a remap per miss.
  std::optional<bool> lookup(std::uint64_t fingerprint,
                             const std::string& algorithm,
                             const std::string& encoding) const;

  // Appends one verdict record (write-through: durable up to OS buffering
  // immediately, fsync'd by sync()). A key already present in the shard is
  // skipped — replaying warm traffic must not grow the log. Writer only;
  // calling it on a follower is a bug (`VerdictCache` checks writable()).
  void append(std::uint64_t fingerprint, const std::string& algorithm,
              const std::string& encoding, bool accepted);

  // fsync every shard. Called by VerdictCache::clear() before entries are
  // dropped (the eviction write-through hook) and by the destructor.
  // No-op in follower mode (nothing of ours to flush).
  void sync();

  // Whether append() is allowed — the write-through guard followers trip.
  bool writable() const { return role_ == Role::writer; }

  struct Stats {
    std::uint64_t records_loaded = 0;  // valid records indexed at open
    std::uint64_t quarantined = 0;     // checksum-failed records skipped
    std::uint64_t dropped_bytes = 0;   // truncated-tail bytes discarded
    std::uint64_t truncations = 0;     // crash-recovery ftruncate calls
    std::uint64_t appended = 0;        // records written by this process
    std::uint64_t appended_bytes = 0;  // log bytes written by this process
    std::uint64_t fsyncs = 0;          // shard fsync calls issued by sync()
    // Follower-mode counters (zero for writers):
    std::uint64_t tail_refreshes = 0;  // grown-tail rescans on lookup miss
    std::uint64_t tail_records = 0;    // records picked up by refreshes
  };
  Stats stats() const;

  // Registers the durability counters into the process metrics registry
  // under `locald_store_*` (callback-based — the registry reads the same
  // state `stats()` reports). Handles own the registration.
  std::vector<std::shared_ptr<void>> register_metrics();

  std::size_t shard_count() const { return shards_.size(); }
  const std::string& path() const { return path_; }

  // Test hook: the next append() writes only the first `bytes` bytes of its
  // record and then fails as a short write would (ENOSPC). One-shot.
  static void test_fail_next_append_after(std::size_t bytes);

 private:
  struct Shard {
    mutable std::mutex mu;
    int fd = -1;
    std::uint64_t size = 0;       // logical end of the log
    // Follower: the file's size and modification time at the last walk. A
    // walk that stopped short of the end (a bad checksum, or a write still
    // in flight) is retried only once the file has changed since.
    std::uint64_t walked_size = 0;
    std::int64_t walked_mtime_ns = 0;
    const char* map = nullptr;    // mapping of [0, map_size) made at open
    std::size_t map_size = 0;
    // key-hash → record offset; multimap so a 64-bit collision keeps both
    // records reachable (lookups verify key bytes before trusting one).
    std::unordered_multimap<std::uint64_t, std::uint64_t> index;
  };

  void acquire_write_lease();
  void open_shard(Shard& shard, std::size_t index);
  // Follower: remap the shard past its high-water offset and index every
  // complete, checksum-valid record that landed since. Returns whether any
  // new record was picked up. A file unchanged since the last walk is not
  // remapped. Caller holds shard.mu.
  bool refresh_tail(Shard& shard) const;
  // Reads the record at `offset` and returns its verdict iff its key
  // equals (algorithm, encoding).
  std::optional<bool> match_record(const Shard& shard, std::uint64_t offset,
                                   const std::string& algorithm,
                                   const std::string& encoding) const;

  std::string path_;
  Role role_;
  int lease_fd_ = -1;  // writer: the held PATH/LOCK open-file-description
  mutable std::vector<Shard> shards_;
  std::uint64_t records_loaded_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t truncations_ = 0;
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> appended_bytes_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  mutable std::atomic<std::uint64_t> tail_refreshes_{0};
  mutable std::atomic<std::uint64_t> tail_records_{0};
};

}  // namespace locald::exec
