// `locald serve` — the long-lived HTTP/JSON serving layer.
//
// One process-wide `ThreadPool` and ONE shared `VerdictCache` live for the
// whole server lifetime, so canonical-ball verdicts memoized while
// answering request A accelerate every later request that meets an
// isomorphic ball — the cross-request regime the one-shot CLI can never
// reach. Results stay byte-identical anyway: the execution engine's
// contract (memoized == unmemoized, any thread count) means the shared
// cache and pool are pure accelerators, never inputs to a response body.
//
// Concurrency model: an acceptor thread plus a fixed pool of request
// workers draining a bounded connection queue. When the queue is full the
// acceptor answers `503 Service Unavailable` with `Retry-After` directly —
// overload sheds load at the door with O(1) memory instead of queueing
// unboundedly toward OOM. Request workers may run scenarios concurrently;
// the exec pool serializes its parallel loops internally, and scenarios
// share no mutable state, so concurrent identical requests produce
// byte-identical bodies (tested, and smoke-checked in CI).
//
// Connections are persistent (HTTP/1.1 keep-alive): a worker serves
// requests off one connection in a loop until the client closes or sends
// `Connection: close`, the negotiated protocol demands it, the
// per-connection request cap is reached, or the connection idles past
// `idle_timeout_ms` between requests. Bytes a client pipelines beyond one
// request carry into the next parse. `POST /v1/sweep` over HTTP/1.1
// streams its response with chunked transfer coding — one chunk per flush
// boundary (prelude / each finished cell / postlude) — and the
// concatenated chunks are byte-identical to the buffered document, so
// streaming never weakens the byte-identity contract.
//
// The shared cache is reset (entries dropped, monotonic counters kept)
// whenever it outgrows `cache_reset_entries`, bounding the resident memory
// of an arbitrarily long serving life. With `store_path` set, a persistent
// `VerdictStore` backs the cache: inserts write through, resets only drop
// the memory tier, and a restarted server answers previously-decided
// canonical classes from disk (warm start).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "exec/thread_pool.h"
#include "exec/verdict_cache.h"
#include "exec/verdict_store.h"
#include "graph/isomorphism.h"
#include "local/event_engine.h"
#include "obs/access_log.h"
#include "obs/metrics.h"
#include "server/http.h"

namespace locald::server {

struct ServeOptions {
  std::string host = "127.0.0.1";  // bind address (loopback by default)
  int port = 8080;                 // 0 = ephemeral, read back via port()
  int threads = 1;                 // exec-pool size; 0 = hardware, 1 = serial
  int workers = 4;                 // concurrent request handlers
  int max_queue = 64;              // accepted-but-unserved connection bound
  int read_timeout_ms = 10000;     // per-recv deadline inside one request
  int idle_timeout_ms = 5000;      // keep-alive: wait for the next request
  // Requests served on one connection before it is closed (Connection:
  // close on the final response); bounds how long a client can pin a
  // worker.
  int max_requests_per_connection = 100;
  HttpLimits limits;
  std::uint64_t cache_reset_entries = 1u << 20;  // shared-cache entry budget
  // Directory of the persistent verdict store (`locald serve --store`);
  // empty = in-memory cache only, verdicts die with the process.
  std::string store_path;
  std::size_t store_shards = 16;
  // Open the store as a read-only follower (`locald serve --follower`):
  // another process holds the write lease and appends; this one serves
  // lookups from private mmaps and picks up the grown tail on a miss.
  // Ignored when store_path is empty.
  bool store_follower = false;
  // NDJSON access log (`locald serve --access-log FILE`); empty = disabled.
  std::string access_log_path;
  // Span-trace collection over the server's life, written as Chrome trace
  // JSON on stop() (`locald serve --trace-out FILE`); empty = disabled.
  std::string trace_out;
};

// A point-in-time view for GET /v1/metrics. Counters are monotonic over the
// server's life except the two gauges (in_flight, queue_depth).
struct MetricsSnapshot {
  std::uint64_t requests_total = 0;     // responses written by workers
  std::uint64_t connections_total = 0;  // connections served by workers
  std::uint64_t rejected_total = 0;     // 503s shed by the acceptor
  std::uint64_t errors_total = 0;       // worker responses with status >= 400
  std::uint64_t cache_resets = 0;
  std::uint64_t in_flight = 0;       // gauge: connections being served now
  std::uint64_t queue_depth = 0;     // gauge: connections awaiting a worker
  int workers = 0;
  int max_queue = 0;
  int pool_parallelism = 1;
  // Process section: uptime, peak RSS, and the two gauges above double as
  // the open-connection / queue-depth facts.
  double uptime_seconds = 0.0;
  std::uint64_t peak_rss_kb = 0;
  exec::VerdictCache::Stats cache;
  // Persistent-store section; meaningful only when `store_attached`.
  bool store_attached = false;
  bool store_follower = false;  // this process's role on the shared store
  std::string store_path;
  exec::VerdictStore::Stats store;
  // Process-wide canonicalization-engine counters (graph/isomorphism.h):
  // tier-2 searches run, census balls seen, census balls answered by the
  // raw-structure dedup before any search. Monotonic, scheduling-dependent
  // — /v1/metrics is the one endpoint allowed to be volatile.
  graph::CanonicalizationCounters canon;
  // Process-wide event-engine counters (local/event_engine.h): events
  // dispatched, messages dropped/fragmented/delayed, deepest queue seen.
  // Monotonic accumulations over every event-driven run in the process.
  local::EventEngineCounters events;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and starts the acceptor + workers; throws `Error` when the
  // address cannot be bound. Idempotence is not needed: one start per
  // Server.
  void start();

  // Stops accepting, drains nothing (queued connections are closed), joins
  // all threads. Safe to call repeatedly; the destructor calls it.
  void stop();

  // The bound port (resolves port 0 to the kernel-assigned ephemeral one).
  int port() const { return bound_port_; }

  MetricsSnapshot metrics() const;

  // Routes one parsed request to a response. Public so tests can exercise
  // routing without sockets; the workers use exactly this path.
  HttpResponse handle(const HttpRequest& request);

 private:
  void accept_loop();
  void worker_loop(int worker);
  void serve_connection(int fd, int worker);
  // Streams POST /v1/sweep with chunked transfer coding. Engaged result:
  // a pre-head validation failure (400/404) for the caller to answer
  // buffered. nullopt: the response left on the wire (or the client went
  // away mid-stream — `*io_failed` true, caller must close).
  std::optional<HttpResponse> stream_sweep(int fd, const HttpRequest& request,
                                           bool keep_alive, bool* io_failed,
                                           std::uint64_t* bytes_sent);
  bool send_all(int fd, const std::string& bytes);
  void maybe_reset_cache();

  ServeOptions options_;
  int listen_fd_ = -1;
  int bound_port_ = 0;

  std::optional<exec::ThreadPool> pool_;  // engaged unless threads == 1
  std::optional<exec::VerdictStore> store_;  // engaged when store_path set
  exec::VerdictCache cache_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;  // accepted fds awaiting a worker
  // Connections currently inside serve_connection; stop() shuts them down
  // so workers blocked waiting for a next keep-alive request wake promptly.
  std::unordered_set<int> active_fds_;
  bool stopping_ = false;

  std::optional<obs::AccessLog> access_log_;  // engaged via access_log_path

  // Registry-backed instruments. The server owns the handles; `metrics()`
  // and the Prometheus exposition read the same objects, so the two surfaces
  // cannot disagree. A later Server in the same process re-registers the
  // names and wins the export.
  std::shared_ptr<obs::Counter> requests_total_;
  std::shared_ptr<obs::Counter> connections_total_;
  std::shared_ptr<obs::Counter> rejected_total_;
  std::shared_ptr<obs::Counter> errors_total_;
  std::shared_ptr<obs::Counter> cache_resets_;
  std::shared_ptr<obs::Counter> response_bytes_;
  std::shared_ptr<obs::Gauge> in_flight_;
  std::shared_ptr<obs::Histogram> request_seconds_;
  // Callback registrations (queue depth, process facts, cache/store tiers).
  // Declared last so they unregister first during destruction, while every
  // member they read is still alive.
  std::vector<obs::MetricHandle> metric_handles_;
};

}  // namespace locald::server
