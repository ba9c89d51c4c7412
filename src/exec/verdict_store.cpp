#include "exec/verdict_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>

#include "obs/metrics.h"
#include "support/check.h"
#include "support/format.h"
#include "support/hash.h"

namespace locald::exec {

namespace {

constexpr char kMagic[4] = {'L', 'D', 'V', 'S'};
constexpr std::uint32_t kVersion = 1;

struct FileHeader {
  char magic[4];
  std::uint32_t version;
  std::uint32_t shard_index;
  std::uint32_t shard_count;
};
static_assert(sizeof(FileHeader) == 16);

std::int64_t mtime_ns(const struct stat& st) {
  return static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
         st.st_mtim.tv_nsec;
}

struct RecordHeader {
  std::uint32_t checksum;
  std::uint32_t algo_len;
  std::uint32_t enc_len;
  std::uint8_t verdict;
  std::uint8_t pad[3];
};
static_assert(sizeof(RecordHeader) == 16);

// A canonical encoding is bounded by the memo ball cap upstream; anything
// near this bound in a length field is log corruption, not a real record.
constexpr std::uint32_t kMaxKeyBytes = 1u << 24;

// Test hook (test_fail_next_append_after): byte count after which the next
// append fails mid-write, or -1 when disarmed.
std::atomic<long> g_fail_append_after{-1};

std::uint32_t fold32(std::uint64_t h) {
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

// Checksum over everything after the checksum field: the rest of the
// header, then the key bytes.
std::uint32_t record_checksum(const RecordHeader& header,
                              const std::string& algorithm,
                              const std::string& encoding) {
  std::uint64_t h =
      fnv1a(reinterpret_cast<const char*>(&header) + sizeof(std::uint32_t),
            sizeof(RecordHeader) - sizeof(std::uint32_t));
  h = fnv1a(algorithm.data(), algorithm.size(), h);
  h = fnv1a(encoding.data(), encoding.size(), h);
  return fold32(h);
}

std::uint32_t record_checksum_raw(const char* record, std::size_t len) {
  return fold32(fnv1a(record + sizeof(std::uint32_t),
                      len - sizeof(std::uint32_t)));
}

std::uint64_t key_hash(std::string_view algorithm, std::string_view encoding) {
  std::uint64_t h = fnv1a(algorithm.data(), algorithm.size());
  h = fnv1a("\0", 1, h);
  return fnv1a(encoding.data(), encoding.size(), h);
}

// What a record walk does at a whole record whose checksum fails.
enum class OnBadChecksum {
  // Recovery at open: quarantine the record. Its lengths walked us past
  // exactly this record, so what follows is intact and keeps loading.
  skip,
  // Follower tail refresh: either the writer's write() is still partially
  // visible or the record is genuinely corrupt. The follower cannot tell,
  // so it holds its high-water mark here and retries on the next miss; a
  // writer restart repairs true corruption.
  stop,
};

struct RecordWalk {
  std::uint64_t end = 0;      // offset the walk stopped at
  std::uint64_t indexed = 0;  // checksum-valid records added to the index
  std::uint64_t skipped = 0;  // checksum-failed records walked past
};

// Walks the records of the mapped log `base[offset, size)`, indexing each
// whole, checksum-valid one by key hash. Stops at a torn tail, at garbage
// lengths (an unwalkable tail), and per `on_bad` at a checksum failure.
RecordWalk walk_records(
    const char* base, std::uint64_t offset, std::uint64_t size,
    OnBadChecksum on_bad,
    std::unordered_multimap<std::uint64_t, std::uint64_t>& index) {
  RecordWalk walk;
  while (size - offset >= sizeof(RecordHeader)) {
    RecordHeader rec{};
    std::memcpy(&rec, base + offset, sizeof(rec));
    if (rec.algo_len > kMaxKeyBytes || rec.enc_len > kMaxKeyBytes) break;
    const std::uint64_t record_len =
        sizeof(RecordHeader) + rec.algo_len + rec.enc_len;
    if (size - offset < record_len) break;  // torn tail
    if (rec.checksum != record_checksum_raw(base + offset, record_len)) {
      if (on_bad == OnBadChecksum::stop) break;
      walk.skipped += 1;
      offset += record_len;
      continue;
    }
    const char* keys = base + offset + sizeof(RecordHeader);
    index.emplace(key_hash(std::string_view(keys, rec.algo_len),
                           std::string_view(keys + rec.algo_len, rec.enc_len)),
                  offset);
    walk.indexed += 1;
    offset += record_len;
  }
  walk.end = offset;
  return walk;
}

void write_fully(int fd, const char* data, std::size_t len,
                 const std::string& what) {
  std::size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(cat("verdict store: write(", what,
                      "): ", std::strerror(errno)));
    }
    written += static_cast<std::size_t>(n);
  }
}

// Shard file names are zero-padded to a fixed width per store so a
// directory listing sorts in shard-index order: two digits covers the
// common counts, three once the store is sharded past 100 files.
std::string shard_file(const std::string& path, std::size_t index,
                       std::size_t count) {
  const std::size_t width = count > 100 ? 3 : 2;
  std::string digits = std::to_string(index);
  while (digits.size() < width) digits.insert(digits.begin(), '0');
  return cat(path, "/shard-", digits, ".log");
}

}  // namespace

void VerdictStore::test_fail_next_append_after(std::size_t bytes) {
  g_fail_append_after.store(static_cast<long>(bytes),
                            std::memory_order_relaxed);
}

VerdictStore::VerdictStore(std::string path, std::size_t shard_count,
                           Role role)
    : path_(std::move(path)), role_(role), shards_(shard_count) {
  LOCALD_CHECK(!path_.empty(), "verdict store path must be non-empty");
  LOCALD_CHECK(shard_count >= 1 && shard_count <= 256,
               "verdict store shard count must be in [1, 256]");
  if (writable()) {
    if (::mkdir(path_.c_str(), 0755) != 0 && errno != EEXIST) {
      throw Error(cat("verdict store: cannot create directory ", path_, ": ",
                      std::strerror(errno)));
    }
    acquire_write_lease();
  }
  try {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      open_shard(shards_[i], i);
    }
  } catch (...) {
    // Half-open stores must not leak the lease or shard descriptors; the
    // destructor will not run for a throwing constructor.
    for (Shard& shard : shards_) {
      if (shard.map != nullptr) {
        ::munmap(const_cast<char*>(shard.map), shard.map_size);
      }
      if (shard.fd >= 0) ::close(shard.fd);
    }
    if (lease_fd_ >= 0) ::close(lease_fd_);
    throw;
  }
}

VerdictStore::~VerdictStore() {
  sync();
  for (Shard& shard : shards_) {
    if (shard.map != nullptr) {
      ::munmap(const_cast<char*>(shard.map), shard.map_size);
    }
    if (shard.fd >= 0) ::close(shard.fd);
  }
  // Closing the lease descriptor releases the OFD lock with it.
  if (lease_fd_ >= 0) ::close(lease_fd_);
}

void VerdictStore::acquire_write_lease() {
  const std::string lock_file = cat(path_, "/LOCK");
  lease_fd_ = ::open(lock_file.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (lease_fd_ < 0) {
    throw Error(cat("verdict store: cannot open write lease ", lock_file,
                    ": ", std::strerror(errno)));
  }
  // An open-file-description (OFD) lock: held for the life of this open
  // description, released on close or process death — never by another fd
  // in this process touching the file — and it conflicts between two
  // opens even inside one process, so the single-writer invariant is
  // testable without forking.
  struct flock lease{};
  lease.l_type = F_WRLCK;
  lease.l_whence = SEEK_SET;
  lease.l_start = 0;
  lease.l_len = 0;  // the whole file
  if (::fcntl(lease_fd_, F_OFD_SETLK, &lease) != 0) {
    const bool held = errno == EAGAIN || errno == EACCES;
    const std::string why = std::strerror(errno);
    ::close(lease_fd_);
    lease_fd_ = -1;
    if (held) {
      throw Error(cat("verdict store: ", path_,
                      " already has a live writer (write lease ", lock_file,
                      " is held); run additional processes as read-only "
                      "followers (--follower)"));
    }
    throw Error(cat("verdict store: cannot acquire write lease ", lock_file,
                    ": ", why));
  }
}

void VerdictStore::open_shard(Shard& shard, std::size_t index) {
  const std::string file = shard_file(path_, index, shards_.size());
  shard.fd = writable()
                 ? ::open(file.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644)
                 : ::open(file.c_str(), O_RDONLY | O_CLOEXEC);
  if (shard.fd < 0) {
    throw Error(cat("verdict store: cannot open ", file, ": ",
                    std::strerror(errno),
                    writable() ? ""
                               : " (follower mode: the store must be "
                                 "created by a writer first)"));
  }
  struct stat st{};
  LOCALD_CHECK(::fstat(shard.fd, &st) == 0,
               cat("verdict store: fstat(", file, ")"));
  std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);

  if (file_size == 0) {
    if (!writable()) {
      throw Error(cat("verdict store: ", file,
                      " has no header yet (follower mode: wait for the "
                      "writer to initialize the store)"));
    }
    FileHeader header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kVersion;
    header.shard_index = static_cast<std::uint32_t>(index);
    header.shard_count = static_cast<std::uint32_t>(shards_.size());
    write_fully(shard.fd, reinterpret_cast<const char*>(&header),
                sizeof(header), file);
    shard.size = sizeof(header);
    return;
  }

  if (file_size < sizeof(FileHeader)) {
    if (!writable()) {
      throw Error(cat("verdict store: ", file,
                      " has no header yet (follower mode: wait for the "
                      "writer to initialize the store)"));
    }
    // Crash before even the header landed: start the shard over.
    LOCALD_CHECK(::ftruncate(shard.fd, 0) == 0,
                 cat("verdict store: ftruncate(", file, ")"));
    dropped_bytes_ += file_size;
    truncations_ += 1;
    open_shard(shard, index);
    return;
  }

  // Recovery scan over a private read-only mapping of the whole log.
  void* mapped = ::mmap(nullptr, static_cast<std::size_t>(file_size),
                        PROT_READ, MAP_PRIVATE, shard.fd, 0);
  if (mapped == MAP_FAILED) {
    throw Error(cat("verdict store: mmap(", file, "): ",
                    std::strerror(errno)));
  }
  const char* base = static_cast<const char*>(mapped);

  FileHeader header{};
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0 ||
      header.version != kVersion ||
      header.shard_index != static_cast<std::uint32_t>(index) ||
      header.shard_count != static_cast<std::uint32_t>(shards_.size())) {
    ::munmap(mapped, static_cast<std::size_t>(file_size));
    throw Error(cat("verdict store: ", file,
                    " is not a shard of this store (wrong magic, version, "
                    "or shard layout)"));
  }

  const RecordWalk walk = walk_records(base, sizeof(FileHeader), file_size,
                                       OnBadChecksum::skip, shard.index);
  quarantined_ += walk.skipped;
  records_loaded_ += walk.indexed;
  const std::uint64_t offset = walk.end;

  if (offset < file_size && writable()) {
    // Torn or unwalkable tail: truncate so new appends start on a clean
    // record boundary.
    dropped_bytes_ += file_size - offset;
    truncations_ += 1;
    LOCALD_CHECK(::ftruncate(shard.fd, static_cast<off_t>(offset)) == 0,
                 cat("verdict store: ftruncate(", file, ")"));
    ::munmap(mapped, static_cast<std::size_t>(file_size));
    mapped = nullptr;
    if (offset > sizeof(FileHeader)) {
      mapped = ::mmap(nullptr, static_cast<std::size_t>(offset), PROT_READ,
                      MAP_PRIVATE, shard.fd, 0);
      if (mapped == MAP_FAILED) {
        throw Error(cat("verdict store: mmap(", file, "): ",
                        std::strerror(errno)));
      }
      shard.map = static_cast<const char*>(mapped);
      shard.map_size = static_cast<std::size_t>(offset);
    }
  } else {
    // Follower: never truncate — the bytes past `offset` may be a write
    // still in flight; the map covers the whole file and the high-water
    // mark stays at the last whole record until a tail refresh moves it.
    shard.map = base;
    shard.map_size = static_cast<std::size_t>(file_size);
    shard.walked_size = file_size;
    shard.walked_mtime_ns = mtime_ns(st);
  }
  shard.size = offset;
  if (writable()) {
    // Appends go through the fd's own offset; position it at the log's end
    // (O_APPEND is avoided so a truncated fd and the logical size agree).
    LOCALD_CHECK(::lseek(shard.fd, static_cast<off_t>(shard.size),
                         SEEK_SET) >= 0,
                 cat("verdict store: lseek(", file, ")"));
  }
}

bool VerdictStore::refresh_tail(Shard& shard) const {
  struct stat st{};
  if (::fstat(shard.fd, &st) != 0) return false;
  const std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size <= shard.size ||
      (file_size == shard.walked_size &&
       mtime_ns(st) == shard.walked_mtime_ns)) {
    return false;  // nothing new since the last walk
  }
  tail_refreshes_.fetch_add(1, std::memory_order_relaxed);

  // Records are append-only and immutable, so a refresh is a fresh private
  // map of the grown file plus a scan from the old high-water offset. The
  // old map is replaced (not extended): a MAP_PRIVATE page already faulted
  // in is not guaranteed to reflect writes made after the map, a fresh one
  // is.
  void* mapped = ::mmap(nullptr, static_cast<std::size_t>(file_size),
                        PROT_READ, MAP_PRIVATE, shard.fd, 0);
  if (mapped == MAP_FAILED) return false;
  if (shard.map != nullptr) {
    ::munmap(const_cast<char*>(shard.map), shard.map_size);
  }
  shard.map = static_cast<const char*>(mapped);
  shard.map_size = static_cast<std::size_t>(file_size);

  const RecordWalk walk = walk_records(shard.map, shard.size, file_size,
                                       OnBadChecksum::stop, shard.index);
  shard.size = walk.end;
  shard.walked_size = file_size;
  shard.walked_mtime_ns = mtime_ns(st);
  tail_records_.fetch_add(walk.indexed, std::memory_order_relaxed);
  return walk.indexed > 0;
}

std::optional<bool> VerdictStore::match_record(
    const Shard& shard, std::uint64_t offset, const std::string& algorithm,
    const std::string& encoding) const {
  const std::size_t record_len =
      sizeof(RecordHeader) + algorithm.size() + encoding.size();
  std::vector<char> scratch;
  const char* record = nullptr;
  if (offset + record_len <= shard.map_size) {
    record = shard.map + offset;
  } else {
    scratch.resize(record_len);
    const ssize_t n = ::pread(shard.fd, scratch.data(), record_len,
                              static_cast<off_t>(offset));
    if (n != static_cast<ssize_t>(record_len)) return std::nullopt;
    record = scratch.data();
  }
  RecordHeader rec{};
  std::memcpy(&rec, record, sizeof(rec));
  if (rec.algo_len != algorithm.size() || rec.enc_len != encoding.size()) {
    return std::nullopt;  // hash collision with a different key
  }
  const char* keys = record + sizeof(RecordHeader);
  if (std::memcmp(keys, algorithm.data(), algorithm.size()) != 0 ||
      std::memcmp(keys + algorithm.size(), encoding.data(),
                  encoding.size()) != 0) {
    return std::nullopt;
  }
  return rec.verdict != 0;
}

std::optional<bool> VerdictStore::lookup(std::uint64_t fingerprint,
                                         const std::string& algorithm,
                                         const std::string& encoding) const {
  Shard& shard =
      shards_[static_cast<std::size_t>(fingerprint % shards_.size())];
  const std::uint64_t hash = key_hash(algorithm, encoding);
  std::lock_guard<std::mutex> lk(shard.mu);
  for (int pass = 0; pass < 2; ++pass) {
    const auto [begin, end] = shard.index.equal_range(hash);
    for (auto it = begin; it != end; ++it) {
      if (const auto verdict =
              match_record(shard, it->second, algorithm, encoding)) {
        return verdict;
      }
    }
    // Follower miss: the writer may have appended this class since our
    // last scan — pick up the grown tail once, then re-check the index.
    if (writable() || pass == 1 || !refresh_tail(shard)) break;
  }
  return std::nullopt;
}

void VerdictStore::append(std::uint64_t fingerprint,
                          const std::string& algorithm,
                          const std::string& encoding, bool accepted) {
  LOCALD_ASSERT(writable(),
                "verdict store: append() on a read-only follower");
  LOCALD_CHECK(algorithm.size() < kMaxKeyBytes && encoding.size() < kMaxKeyBytes,
               "verdict store: key too large");
  Shard& shard =
      shards_[static_cast<std::size_t>(fingerprint % shards_.size())];
  const std::uint64_t hash = key_hash(algorithm, encoding);
  std::lock_guard<std::mutex> lk(shard.mu);
  const auto [begin, end] = shard.index.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (match_record(shard, it->second, algorithm, encoding)) {
      return;  // already persisted; replays must not grow the log
    }
  }
  RecordHeader rec{};
  rec.algo_len = static_cast<std::uint32_t>(algorithm.size());
  rec.enc_len = static_cast<std::uint32_t>(encoding.size());
  rec.verdict = accepted ? 1 : 0;
  rec.checksum = record_checksum(rec, algorithm, encoding);
  std::string bytes;
  bytes.reserve(sizeof(rec) + algorithm.size() + encoding.size());
  bytes.append(reinterpret_cast<const char*>(&rec), sizeof(rec));
  bytes += algorithm;
  bytes += encoding;
  const std::string file = shard_file(
      path_, static_cast<std::size_t>(fingerprint % shards_.size()),
      shards_.size());
  try {
    const long inject = g_fail_append_after.exchange(
        -1, std::memory_order_relaxed);
    if (inject >= 0) {
      write_fully(shard.fd, bytes.data(),
                  std::min(static_cast<std::size_t>(inject), bytes.size()),
                  file);
      throw Error(cat("verdict store: write(", file,
                      "): injected short write"));
    }
    write_fully(shard.fd, bytes.data(), bytes.size(), file);
  } catch (...) {
    // A partial append would leave torn bytes mid-file: the next
    // successful append would land after them and recovery's
    // declared-length walk would misparse everything that follows. Roll
    // the file back to the pre-append boundary before the error
    // propagates; best-effort — if even ftruncate fails here the open-time
    // recovery scan still drops the torn tail.
    ::ftruncate(shard.fd, static_cast<off_t>(shard.size));
    ::lseek(shard.fd, static_cast<off_t>(shard.size), SEEK_SET);
    throw;
  }
  shard.index.emplace(hash, shard.size);
  shard.size += bytes.size();
  appended_.fetch_add(1, std::memory_order_relaxed);
  appended_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
}

void VerdictStore::sync() {
  if (!writable()) return;  // followers have nothing of their own to flush
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    if (shard.fd >= 0) {
      ::fsync(shard.fd);
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

VerdictStore::Stats VerdictStore::stats() const {
  Stats s;
  s.records_loaded = records_loaded_;
  s.quarantined = quarantined_;
  s.dropped_bytes = dropped_bytes_;
  s.truncations = truncations_;
  s.appended = appended_.load(std::memory_order_relaxed);
  s.appended_bytes = appended_bytes_.load(std::memory_order_relaxed);
  s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  s.tail_refreshes = tail_refreshes_.load(std::memory_order_relaxed);
  s.tail_records = tail_records_.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::shared_ptr<void>> VerdictStore::register_metrics() {
  obs::Registry& reg = obs::registry();
  std::vector<std::shared_ptr<void>> handles;
  handles.push_back(reg.counter_fn(
      "locald_store_records_loaded_total",
      "Valid verdict records indexed when the store opened",
      [this] { return records_loaded_; }));
  handles.push_back(reg.counter_fn(
      "locald_store_appended_total",
      "Verdict records appended to the store by this process",
      [this] { return appended_.load(std::memory_order_relaxed); }));
  handles.push_back(reg.counter_fn(
      "locald_store_appended_bytes_total",
      "Log bytes appended to the store by this process",
      [this] { return appended_bytes_.load(std::memory_order_relaxed); }));
  handles.push_back(reg.counter_fn(
      "locald_store_fsyncs_total", "Shard fsync calls issued by sync()",
      [this] { return fsyncs_.load(std::memory_order_relaxed); }));
  handles.push_back(reg.counter_fn(
      "locald_store_quarantined_total",
      "Checksum-failed records skipped during crash recovery",
      [this] { return quarantined_; }));
  handles.push_back(reg.counter_fn(
      "locald_store_truncations_total",
      "Crash-recovery truncations applied to shard logs at open",
      [this] { return truncations_; }));
  handles.push_back(reg.counter_fn(
      "locald_store_dropped_bytes_total",
      "Torn-tail bytes discarded during crash recovery",
      [this] { return dropped_bytes_; }));
  handles.push_back(reg.gauge_fn(
      "locald_store_follower",
      "1 when this process serves the store as a read-only follower",
      [this] { return writable() ? 0.0 : 1.0; }));
  handles.push_back(reg.counter_fn(
      "locald_store_tail_refreshes_total",
      "Follower rescans of a shard's grown tail after a lookup miss",
      [this] { return tail_refreshes_.load(std::memory_order_relaxed); }));
  handles.push_back(reg.counter_fn(
      "locald_store_tail_records_total",
      "Writer-appended records a follower picked up via tail refreshes",
      [this] { return tail_records_.load(std::memory_order_relaxed); }));
  return handles;
}

}  // namespace locald::exec
