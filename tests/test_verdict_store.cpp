// Crash-recovery and corruption battery for the persistent verdict store.
//
// The store's contract (exec/verdict_store.h) is that a crash can cost at
// most the torn tail record and a corrupted record costs exactly itself:
// recovery walks the checksummed append log, truncates unwalkable tails,
// and quarantines checksum failures without losing what follows. These
// tests inflict the damage byte-by-byte on real shard files and assert the
// blast radius, then pin the end-to-end warm-start property: a reloaded
// store answers byte-identically to recomputation on every registered
// graph family.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "exec/context.h"
#include "exec/verdict_cache.h"
#include "exec/verdict_store.h"
#include "gen/family.h"
#include "local/algorithm.h"
#include "local/labeled_graph.h"
#include "local/simulator.h"
#include "support/check.h"
#include "support/hash.h"

namespace locald::exec {
namespace {

// A self-cleaning temporary store directory.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = "/tmp/locald-store-XXXXXX";
    LOCALD_CHECK(::mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    DIR* dir = ::opendir(path.c_str());
    if (dir != nullptr) {
      while (dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          ::unlink((path + "/" + name).c_str());
        }
      }
      ::closedir(dir);
    }
    ::rmdir(path.c_str());
  }
};

std::uint64_t fp(const std::string& encoding) {
  return hash_string(encoding);
}

// File-level surgery helpers for the corruption tests. Single-shard stores
// keep the record layout deterministic: FileHeader (16 bytes), then records
// in append order, each 16-byte RecordHeader + algorithm + encoding with
// the checksum as the header's first 4 bytes.
constexpr std::size_t kFileHeaderBytes = 16;
constexpr std::size_t kRecordHeaderBytes = 16;

std::string only_shard(const std::string& dir) { return dir + "/shard-00.log"; }

off_t file_size(const std::string& file) {
  struct stat st{};
  LOCALD_CHECK(::stat(file.c_str(), &st) == 0, "stat failed");
  return st.st_size;
}

void flip_byte(const std::string& file, off_t offset) {
  const int fd = ::open(file.c_str(), O_RDWR);
  LOCALD_CHECK(fd >= 0, "open for corruption failed");
  char byte = 0;
  LOCALD_CHECK(::pread(fd, &byte, 1, offset) == 1, "pread failed");
  byte = static_cast<char>(byte ^ 0xFF);
  LOCALD_CHECK(::pwrite(fd, &byte, 1, offset) == 1, "pwrite failed");
  ::close(fd);
}

void truncate_by(const std::string& file, off_t bytes) {
  const off_t size = file_size(file);
  LOCALD_CHECK(size > bytes, "file too small to truncate");
  LOCALD_CHECK(::truncate(file.c_str(), size - bytes) == 0, "truncate failed");
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(VerdictStore, RoundTripsAcrossReopen) {
  TempDir dir;
  {
    VerdictStore store(dir.path, 4);
    store.append(fp("ball-a"), "alg", "ball-a", true);
    store.append(fp("ball-b"), "alg", "ball-b", false);
    store.append(fp("ball-a"), "other-alg", "ball-a", false);
    EXPECT_EQ(store.stats().appended, 3u);
    ASSERT_TRUE(store.lookup(fp("ball-a"), "alg", "ball-a").has_value());
    EXPECT_TRUE(*store.lookup(fp("ball-a"), "alg", "ball-a"));
  }
  VerdictStore reopened(dir.path, 4);
  EXPECT_EQ(reopened.stats().records_loaded, 3u);
  EXPECT_EQ(reopened.stats().quarantined, 0u);
  EXPECT_EQ(reopened.stats().dropped_bytes, 0u);
  EXPECT_TRUE(*reopened.lookup(fp("ball-a"), "alg", "ball-a"));
  EXPECT_FALSE(*reopened.lookup(fp("ball-b"), "alg", "ball-b"));
  EXPECT_FALSE(*reopened.lookup(fp("ball-a"), "other-alg", "ball-a"));
  EXPECT_FALSE(
      reopened.lookup(fp("ball-c"), "alg", "ball-c").has_value());
}

TEST(VerdictStore, ReplayedAppendsDoNotGrowTheLog) {
  TempDir dir;
  {
    VerdictStore store(dir.path, 1);
    store.append(fp("ball-a"), "alg", "ball-a", true);
    store.append(fp("ball-a"), "alg", "ball-a", true);  // replay: skipped
    EXPECT_EQ(store.stats().appended, 1u);
  }
  const off_t size_after_two = file_size(only_shard(dir.path));
  {
    // A whole second serving life replaying the same verdict.
    VerdictStore store(dir.path, 1);
    store.append(fp("ball-a"), "alg", "ball-a", true);
    EXPECT_EQ(store.stats().appended, 0u);
  }
  EXPECT_EQ(file_size(only_shard(dir.path)), size_after_two);
  VerdictStore reopened(dir.path, 1);
  EXPECT_EQ(reopened.stats().records_loaded, 1u);
}

TEST(VerdictStore, RejectsAForeignOrReshardedStore) {
  TempDir dir;
  { VerdictStore store(dir.path, 4); }
  // Same directory, different shard layout: refusing loudly beats serving
  // from the wrong shard files.
  EXPECT_THROW(VerdictStore(dir.path, 8), Error);

  TempDir garbage_dir;
  {
    const std::string file = only_shard(garbage_dir.path);
    const int fd = ::open(file.c_str(), O_WRONLY | O_CREAT, 0644);
    LOCALD_CHECK(fd >= 0, "open failed");
    const char junk[] = "this is not a verdict store shard at all";
    LOCALD_CHECK(::write(fd, junk, sizeof(junk)) ==
                     static_cast<ssize_t>(sizeof(junk)),
                 "write failed");
    ::close(fd);
  }
  EXPECT_THROW(VerdictStore(garbage_dir.path, 1), Error);
}

// ---------------------------------------------------------------------------
// Crash recovery: torn tails and corrupted records
// ---------------------------------------------------------------------------

TEST(VerdictStore, TruncatedTailRecordIsDroppedOnOpen) {
  TempDir dir;
  {
    VerdictStore store(dir.path, 1);
    store.append(fp("ball-a"), "alg", "ball-a", true);
    store.append(fp("ball-b"), "alg", "ball-b", false);
  }
  // A crash mid-write tears the final record; everything before it is
  // untouched.
  truncate_by(only_shard(dir.path), 3);

  {
    VerdictStore recovered(dir.path, 1);
    EXPECT_EQ(recovered.stats().records_loaded, 1u);
    EXPECT_GT(recovered.stats().dropped_bytes, 0u);
    EXPECT_TRUE(*recovered.lookup(fp("ball-a"), "alg", "ball-a"));
    EXPECT_FALSE(recovered.lookup(fp("ball-b"), "alg", "ball-b").has_value());

    // Recovery truncated back to a record boundary, so the store keeps
    // working: the lost verdict can be re-appended and survives the next
    // reopen (scoped: the write lease admits one live writer at a time).
    recovered.append(fp("ball-b"), "alg", "ball-b", false);
  }
  VerdictStore again(dir.path, 1);
  EXPECT_EQ(again.stats().records_loaded, 2u);
  EXPECT_EQ(again.stats().dropped_bytes, 0u);
  EXPECT_FALSE(*again.lookup(fp("ball-b"), "alg", "ball-b"));
}

TEST(VerdictStore, TornTailShorterThanARecordHeaderIsDropped) {
  TempDir dir;
  {
    VerdictStore store(dir.path, 1);
    store.append(fp("ball-a"), "alg", "ball-a", true);
  }
  const off_t intact = file_size(only_shard(dir.path));
  {
    // Simulate a crash that wrote only a few bytes of the next record's
    // header.
    const int fd = ::open(only_shard(dir.path).c_str(), O_WRONLY | O_APPEND);
    LOCALD_CHECK(fd >= 0, "open failed");
    const char torn[] = {0x01, 0x02, 0x03};
    LOCALD_CHECK(::write(fd, torn, sizeof(torn)) == 3, "write failed");
    ::close(fd);
  }
  VerdictStore recovered(dir.path, 1);
  EXPECT_EQ(recovered.stats().records_loaded, 1u);
  EXPECT_EQ(recovered.stats().dropped_bytes, 3u);
  EXPECT_EQ(file_size(only_shard(dir.path)), intact);
}

TEST(VerdictStore, DurabilityCountersTrackAppendsSyncsAndTruncations) {
  TempDir dir;
  {
    VerdictStore store(dir.path, 1);
    EXPECT_EQ(store.stats().appended_bytes, 0u);
    EXPECT_EQ(store.stats().fsyncs, 0u);
    store.append(fp("ball-a"), "alg", "ball-a", true);
    store.append(fp("ball-b"), "alg", "ball-b", false);
    const VerdictStore::Stats stats = store.stats();
    EXPECT_EQ(stats.appended, 2u);
    // Two records, each a header plus algorithm + encoding payload.
    EXPECT_GT(stats.appended_bytes, 2 * kRecordHeaderBytes);
    store.sync();
    EXPECT_EQ(store.stats().fsyncs, 1u);  // one shard, one fsync
    store.sync();
    EXPECT_EQ(store.stats().fsyncs, 2u);
  }  // destructor syncs once more
  truncate_by(only_shard(dir.path), 3);
  VerdictStore recovered(dir.path, 1);
  // Crash recovery cut the torn tail with exactly one ftruncate.
  EXPECT_EQ(recovered.stats().truncations, 1u);
  EXPECT_GT(recovered.stats().dropped_bytes, 0u);
  // Per-process counters start at zero in the recovered life.
  EXPECT_EQ(recovered.stats().appended_bytes, 0u);
  EXPECT_EQ(recovered.stats().fsyncs, 0u);
}

TEST(VerdictStore, FlippedChecksumByteQuarantinesOnlyThatRecord) {
  TempDir dir;
  {
    VerdictStore store(dir.path, 1);
    store.append(fp("ball-a"), "alg", "ball-a", true);
    store.append(fp("ball-b"), "alg", "ball-b", false);
    store.append(fp("ball-c"), "alg", "ball-c", true);
  }
  // Flip a byte of the FIRST record's checksum. Its length fields are
  // intact, so recovery can step over exactly this record and keep loading
  // the two behind it.
  flip_byte(only_shard(dir.path), kFileHeaderBytes);

  VerdictStore recovered(dir.path, 1);
  EXPECT_EQ(recovered.stats().quarantined, 1u);
  EXPECT_EQ(recovered.stats().records_loaded, 2u);
  EXPECT_EQ(recovered.stats().dropped_bytes, 0u);
  // The quarantined record is gone; its neighbors answer as before.
  EXPECT_FALSE(recovered.lookup(fp("ball-a"), "alg", "ball-a").has_value());
  EXPECT_FALSE(*recovered.lookup(fp("ball-b"), "alg", "ball-b"));
  EXPECT_TRUE(*recovered.lookup(fp("ball-c"), "alg", "ball-c"));
}

TEST(VerdictStore, FlippedKeyByteQuarantinesOnlyThatRecord) {
  TempDir dir;
  {
    VerdictStore store(dir.path, 1);
    store.append(fp("ball-a"), "alg", "ball-a", true);
    store.append(fp("ball-b"), "alg", "ball-b", false);
  }
  // Corrupt a key byte of the middle of record one (its checksum no longer
  // matches), leaving record two byte-identical.
  flip_byte(only_shard(dir.path),
            static_cast<off_t>(kFileHeaderBytes + kRecordHeaderBytes + 1));
  VerdictStore recovered(dir.path, 1);
  EXPECT_EQ(recovered.stats().quarantined, 1u);
  EXPECT_EQ(recovered.stats().records_loaded, 1u);
  EXPECT_FALSE(*recovered.lookup(fp("ball-b"), "alg", "ball-b"));
}

// ---------------------------------------------------------------------------
// Concurrency: the store under the cache's write-through traffic
// ---------------------------------------------------------------------------

TEST(VerdictStore, ConcurrentWritersFromEightThreadsReloadEqualToTheCache) {
  TempDir dir;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kClasses = 96;
  VerdictCache cache;
  {
    VerdictStore store(dir.path, 16);
    cache.attach_store(&store);
    // Every thread covers an overlapping window of the key space, so the
    // same class races between threads both in the cache shard and in the
    // store shard behind it.
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&cache, t] {
        for (std::uint64_t i = 0; i < kClasses; ++i) {
          const std::uint64_t cls = (i + static_cast<std::uint64_t>(t) * 7) %
                                    kClasses;
          const std::string enc = "ball-" + std::to_string(cls);
          const bool accepted = cls % 3 == 0;
          if (const auto hit = cache.lookup(fp(enc), "alg", enc)) {
            EXPECT_EQ(*hit, accepted);
          } else {
            cache.insert(fp(enc), "alg", enc, accepted);
          }
        }
      });
    }
    for (std::thread& w : writers) w.join();
    cache.attach_store(nullptr);  // store dies first; detach before it does
  }

  // The reloaded store holds exactly the cache's contents: every class,
  // the right verdict, no duplicates.
  VerdictStore reloaded(dir.path, 16);
  EXPECT_EQ(reloaded.stats().records_loaded, cache.stats().entries);
  EXPECT_EQ(reloaded.stats().quarantined, 0u);
  for (std::uint64_t cls = 0; cls < kClasses; ++cls) {
    const std::string enc = "ball-" + std::to_string(cls);
    const auto stored = reloaded.lookup(fp(enc), "alg", enc);
    const auto cached = cache.lookup(fp(enc), "alg", enc);
    ASSERT_TRUE(stored.has_value()) << enc;
    ASSERT_TRUE(cached.has_value()) << enc;
    EXPECT_EQ(*stored, *cached) << enc;
  }
}

// ---------------------------------------------------------------------------
// End to end: warm-reload verdicts == recomputation on every family
// ---------------------------------------------------------------------------

TEST(VerdictStore, WarmReloadMatchesRecomputationOnEveryFamily) {
  TempDir dir;
  // A deterministic, isomorphism-invariant probe algorithm: memoization-
  // safe by construction (ball size is a canonical-class invariant), with
  // both verdicts realized across the registry's topologies — interior and
  // boundary balls differ in parity in most families.
  const local::LambdaAlgorithm probe(
      "store-probe", 1, /*oblivious=*/true, [](const local::BallView& ball) {
        return ball.node_count() % 2 == 0 ? local::Verdict::yes
                                          : local::Verdict::no;
      });

  for (const gen::Family& family : gen::family_registry()) {
    const gen::FamilyInstanceSpec spec =
        gen::resolve_family_text(family.name, 24);
    const local::LabeledGraph g(spec.build(/*seed=*/7));

    // Reference: recomputation, no cache anywhere.
    const local::RunResult reference = run_oblivious(probe, g);

    // First life: decide every class through a store-backed cache.
    {
      VerdictStore store(dir.path, 4);
      VerdictCache cache;
      cache.attach_store(&store);
      ExecContext ctx;
      ctx.cache = &cache;
      const local::RunResult first = run_oblivious(probe, g, {ctx});
      EXPECT_EQ(first.outputs, reference.outputs) << family.name;
    }

    // Second life: a fresh cache over the reloaded store. Every verdict
    // must come from disk (zero recomputation-misses) and match the
    // reference exactly — the restart-warm contract.
    {
      VerdictStore store(dir.path, 4);
      VerdictCache cache;
      cache.attach_store(&store);
      ExecContext ctx;
      ctx.cache = &cache;
      const local::RunResult warm = run_oblivious(probe, g, {ctx});
      EXPECT_EQ(warm.outputs, reference.outputs) << family.name;
      EXPECT_EQ(warm.accepted, reference.accepted) << family.name;
      const VerdictCache::Stats stats = cache.stats();
      EXPECT_EQ(stats.misses, 0u) << family.name;
      EXPECT_GT(stats.store_hits, 0u) << family.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-path bugfixes: failed-append rollback, CLOEXEC, shard naming
// ---------------------------------------------------------------------------

TEST(VerdictStore, FailedPartialAppendRollsBackTheShardFile) {
  TempDir dir;
  {
    VerdictStore store(dir.path, 1);
    store.append(fp("ball-a"), "alg", "ball-a", true);
    const off_t before = file_size(only_shard(dir.path));

    // Inject a short write: the next append lands only 5 bytes of its
    // record before failing, as ENOSPC would. The store must roll the file
    // back to the pre-append offset before rethrowing — a torn record in
    // the log's INTERIOR would poison every later append.
    VerdictStore::test_fail_next_append_after(5);
    EXPECT_THROW(store.append(fp("ball-b"), "alg", "ball-b", false), Error);
    EXPECT_EQ(file_size(only_shard(dir.path)), before);

    // The store keeps working after the failure: the same append succeeds
    // and lands exactly one whole record past the rollback point.
    store.append(fp("ball-b"), "alg", "ball-b", false);
    ASSERT_TRUE(store.lookup(fp("ball-b"), "alg", "ball-b").has_value());
    EXPECT_FALSE(*store.lookup(fp("ball-b"), "alg", "ball-b"));
  }
  // A clean reopen sees two whole records and no crash-recovery damage.
  VerdictStore reopened(dir.path, 1);
  EXPECT_EQ(reopened.stats().records_loaded, 2u);
  EXPECT_EQ(reopened.stats().dropped_bytes, 0u);
  EXPECT_EQ(reopened.stats().truncations, 0u);
  EXPECT_TRUE(*reopened.lookup(fp("ball-a"), "alg", "ball-a"));
  EXPECT_FALSE(*reopened.lookup(fp("ball-b"), "alg", "ball-b"));
}

TEST(VerdictStore, EveryStoreFdCarriesCloexec) {
  TempDir dir;
  VerdictStore store(dir.path, 4);
  store.append(fp("ball-a"), "alg", "ball-a", true);

  // Walk this process's open fds and assert FD_CLOEXEC on every one that
  // resolves into the store directory (shards and the LOCK lease). A
  // leaked store fd in a forked child would outlive the writer's lease.
  int checked = 0;
  DIR* fds = ::opendir("/proc/self/fd");
  ASSERT_NE(fds, nullptr);
  while (dirent* entry = ::readdir(fds)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    char target[4096];
    const std::string link = "/proc/self/fd/" + name;
    const ssize_t n = ::readlink(link.c_str(), target, sizeof(target) - 1);
    if (n <= 0) continue;
    target[n] = '\0';
    if (std::string(target).rfind(dir.path + "/", 0) != 0) continue;
    const int fd = std::atoi(name.c_str());
    const int flags = ::fcntl(fd, F_GETFD);
    ASSERT_GE(flags, 0);
    EXPECT_NE(flags & FD_CLOEXEC, 0) << "fd " << fd << " -> " << target;
    checked += 1;
  }
  ::closedir(fds);
  EXPECT_GE(checked, 5);  // 4 shards + LOCK
}

TEST(VerdictStore, WideShardCountsGetUnambiguousFileNames) {
  TempDir dir;
  {
    VerdictStore store(dir.path, 128);
    EXPECT_EQ(store.shard_count(), 128u);
    store.append(fp("ball-a"), "alg", "ball-a", true);
    // Above 100 shards the two-digit names would collide or misorder;
    // shard 5 must be zero-padded to the full width.
    EXPECT_EQ(file_size(dir.path + "/shard-005.log"),
              static_cast<off_t>(kFileHeaderBytes));
    EXPECT_EQ(file_size(dir.path + "/shard-127.log"),
              static_cast<off_t>(kFileHeaderBytes));
  }
  VerdictStore reopened(dir.path, 128);
  EXPECT_EQ(reopened.stats().records_loaded, 1u);
  EXPECT_TRUE(*reopened.lookup(fp("ball-a"), "alg", "ball-a"));
}

TEST(VerdictStore, ShardCountBoundsAreValidatedAtOpen) {
  TempDir zero_dir;
  EXPECT_THROW(VerdictStore(zero_dir.path, 0), Error);
  TempDir wide_dir;
  EXPECT_THROW(VerdictStore(wide_dir.path, 257), Error);
}

// ---------------------------------------------------------------------------
// Multi-process protocol: write lease and follower tail refresh
// ---------------------------------------------------------------------------

TEST(VerdictStore, SecondWriterFailsFastWhileTheLeaseIsHeld) {
  TempDir dir;
  {
    VerdictStore writer(dir.path, 1);
    writer.append(fp("ball-a"), "alg", "ball-a", true);
    // The open-file-description lock conflicts even within one process, so
    // the single-writer invariant is testable without forking.
    try {
      VerdictStore second(dir.path, 1);
      FAIL() << "second writer must be rejected while the lease is held";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("live writer"),
                std::string::npos);
      EXPECT_NE(std::string(error.what()).find("--follower"),
                std::string::npos);
    }
    // A follower on the same directory is fine alongside the live writer.
    VerdictStore follower(dir.path, 1, VerdictStore::Role::follower);
    EXPECT_FALSE(follower.writable());
  }
  // The lease dies with the writer: a successor opens cleanly.
  VerdictStore successor(dir.path, 1);
  EXPECT_TRUE(*successor.lookup(fp("ball-a"), "alg", "ball-a"));
}

TEST(VerdictStore, FollowerRequiresAWriterInitializedStore) {
  EXPECT_THROW(
      VerdictStore("/tmp/locald-no-such-store-dir", 1,
                   VerdictStore::Role::follower),
      Error);
  // An existing directory whose shards the writer has not created yet is
  // just as unservable: the follower must fail fast, not invent a store.
  TempDir dir;
  EXPECT_THROW(VerdictStore(dir.path, 1, VerdictStore::Role::follower),
               Error);
}

TEST(VerdictStore, FollowerObservesWriterAppendsAfterTailRefresh) {
  TempDir dir;
  VerdictStore writer(dir.path, 2);
  writer.append(fp("ball-a"), "alg", "ball-a", true);

  VerdictStore follower(dir.path, 2, VerdictStore::Role::follower);
  // Records present at open are served from the open-time index.
  EXPECT_TRUE(*follower.lookup(fp("ball-a"), "alg", "ball-a"));
  EXPECT_EQ(follower.stats().tail_refreshes, 0u);

  // Appends made after the follower opened are invisible until a miss
  // triggers the tail refresh — then every new record in the shard is
  // picked up, not just the one asked about.
  writer.append(fp("ball-b"), "alg", "ball-b", false);
  writer.append(fp("ball-c"), "alg", "ball-c", true);
  ASSERT_TRUE(follower.lookup(fp("ball-b"), "alg", "ball-b").has_value());
  EXPECT_FALSE(*follower.lookup(fp("ball-b"), "alg", "ball-b"));
  EXPECT_TRUE(*follower.lookup(fp("ball-c"), "alg", "ball-c"));
  const VerdictStore::Stats stats = follower.stats();
  EXPECT_GE(stats.tail_refreshes, 1u);
  EXPECT_GE(stats.tail_records, 2u);
  // A genuinely absent key stays a miss (one refresh attempt, no loop).
  EXPECT_FALSE(follower.lookup(fp("ball-z"), "alg", "ball-z").has_value());
}

TEST(VerdictStore, WriterCrashMidAppendLeavesFollowerOnLastGoodPrefix) {
  TempDir dir;
  std::string torn_key;
  {
    VerdictStore writer(dir.path, 1);
    writer.append(fp("ball-a"), "alg", "ball-a", true);
  }
  // Simulate the writer dying mid-write(): a torn half-record lands at the
  // tail of the shard. Build real record bytes by appending through a
  // scratch writer, then chop the tail back mid-record.
  {
    VerdictStore writer(dir.path, 1);
    writer.append(fp("ball-torn"), "alg", "ball-torn", true);
  }
  truncate_by(only_shard(dir.path), 4);

  // The follower opens on the damaged store without truncating anything:
  // it serves the last good prefix and answers the torn key with a miss,
  // holding its high-water mark at the record boundary.
  VerdictStore follower(dir.path, 1, VerdictStore::Role::follower);
  EXPECT_TRUE(*follower.lookup(fp("ball-a"), "alg", "ball-a"));
  EXPECT_FALSE(
      follower.lookup(fp("ball-torn"), "alg", "ball-torn").has_value());

  // A restarted writer repairs the tail (truncates the torn bytes) and
  // appends fresh records; the follower picks them up on its next miss
  // even though the file shrank and regrew under its old map.
  {
    VerdictStore repaired(dir.path, 1);
    EXPECT_EQ(repaired.stats().truncations, 1u);
    EXPECT_GT(repaired.stats().dropped_bytes, 0u);
    repaired.append(fp("ball-b"), "alg", "ball-b", false);
  }
  ASSERT_TRUE(follower.lookup(fp("ball-b"), "alg", "ball-b").has_value());
  EXPECT_FALSE(*follower.lookup(fp("ball-b"), "alg", "ball-b"));
  EXPECT_TRUE(*follower.lookup(fp("ball-a"), "alg", "ball-a"));
}

TEST(VerdictStore, CorruptRecordStopsAFollowerButIsQuarantinedOnReopen) {
  TempDir dir;
  {
    VerdictStore writer(dir.path, 1);
    writer.append(fp("ball-a"), "alg", "ball-a", true);
  }
  VerdictStore follower(dir.path, 1, VerdictStore::Role::follower);
  {
    VerdictStore writer(dir.path, 1);
    writer.append(fp("ball-b"), "alg", "ball-b", false);
    writer.append(fp("ball-c"), "alg", "ball-c", true);
    writer.append(fp("ball-d"), "alg", "ball-d", true);
  }
  // Flip a checksum byte of the third record (ball-c) mid-log; every
  // record here is a header plus "alg" plus a 6-byte encoding.
  constexpr std::size_t kRecordBytes = kRecordHeaderBytes + 3 + 6;
  flip_byte(only_shard(dir.path),
            static_cast<off_t>(kFileHeaderBytes + 2 * kRecordBytes));

  // The follower cannot tell corruption from a write still in flight: its
  // refresh indexes ball-b and holds the high-water mark in front of
  // ball-c, so nothing past that record is indexed.
  ASSERT_TRUE(follower.lookup(fp("ball-b"), "alg", "ball-b").has_value());
  EXPECT_FALSE(follower.lookup(fp("ball-c"), "alg", "ball-c").has_value());
  EXPECT_FALSE(follower.lookup(fp("ball-d"), "alg", "ball-d").has_value());
  EXPECT_EQ(follower.stats().tail_records, 1u);

  // A writer reopening the same log quarantines only that record.
  VerdictStore reopened(dir.path, 1);
  EXPECT_EQ(reopened.stats().quarantined, 1u);
  EXPECT_EQ(reopened.stats().records_loaded, 3u);
  EXPECT_EQ(reopened.stats().dropped_bytes, 0u);
  EXPECT_TRUE(*reopened.lookup(fp("ball-a"), "alg", "ball-a"));
  EXPECT_FALSE(*reopened.lookup(fp("ball-b"), "alg", "ball-b"));
  EXPECT_FALSE(reopened.lookup(fp("ball-c"), "alg", "ball-c").has_value());
  EXPECT_TRUE(*reopened.lookup(fp("ball-d"), "alg", "ball-d"));
}

TEST(VerdictStore, FollowerStoppedAtABadChecksumRefreshesOnlyOnGrowth) {
  TempDir dir;
  {
    VerdictStore writer(dir.path, 1);
    writer.append(fp("ball-a"), "alg", "ball-a", true);
    writer.append(fp("ball-b"), "alg", "ball-b", false);
  }
  // Corrupt ball-b's checksum: the follower's walk stops in front of it
  // and cannot tell corruption from a write in flight.
  constexpr std::size_t kRecordBytes = kRecordHeaderBytes + 3 + 6;
  flip_byte(only_shard(dir.path),
            static_cast<off_t>(kFileHeaderBytes + kRecordBytes));
  VerdictStore follower(dir.path, 1, VerdictStore::Role::follower);
  EXPECT_TRUE(*follower.lookup(fp("ball-a"), "alg", "ball-a"));
  // The file does not change, so 100 misses walk it at most once.
  for (int i = 0; i < 100; ++i) {
    const std::string key = "miss-" + std::to_string(i);
    EXPECT_FALSE(follower.lookup(fp(key), "alg", key).has_value());
  }
  const std::uint64_t refreshes = follower.stats().tail_refreshes;
  EXPECT_LE(refreshes, 1u);
  // A later append grows the file: exactly one more refresh, after which
  // further misses walk nothing again.
  {
    VerdictStore writer(dir.path, 1);
    writer.append(fp("ball-c"), "alg", "ball-c", true);
  }
  for (int i = 0; i < 100; ++i) {
    const std::string key = "later-miss-" + std::to_string(i);
    EXPECT_FALSE(follower.lookup(fp(key), "alg", key).has_value());
  }
  EXPECT_EQ(follower.stats().tail_refreshes, refreshes + 1);
}

TEST(VerdictStore, FollowerBackedCacheSkipsWriteThrough) {
  TempDir dir;
  VerdictStore writer(dir.path, 1);
  writer.append(fp("ball-a"), "alg", "ball-a", true);

  VerdictStore follower(dir.path, 1, VerdictStore::Role::follower);
  VerdictCache cache(1);
  cache.attach_store(&follower);
  // A store hit is promoted into the memory tier as usual.
  ASSERT_TRUE(cache.lookup(fp("ball-a"), "alg", "ball-a").has_value());
  EXPECT_EQ(cache.stats().store_hits, 1u);
  // The follower's own decisions stay in memory: insert must not try to
  // append through the read-only store (which would be a BugError).
  const off_t before = file_size(only_shard(dir.path));
  cache.insert(fp("ball-x"), "alg", "ball-x", true);
  EXPECT_EQ(file_size(only_shard(dir.path)), before);
  EXPECT_TRUE(*cache.lookup(fp("ball-x"), "alg", "ball-x"));
  // clear() must likewise skip the follower's sync.
  cache.clear();
  EXPECT_EQ(follower.stats().fsyncs, 0u);
}

}  // namespace
}  // namespace locald::exec
