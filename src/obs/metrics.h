// Process-wide metrics registry: the one place every subsystem reports
// operational counters, gauges, and latency histograms into, and the one
// source both metric surfaces render from — `GET /metrics` (Prometheus text
// exposition format 0.0.4) and the `/v1/metrics` JSON document.
//
// Design:
//  - Instrument types are lock-free on the hot path. `Counter` and `Gauge`
//    are one relaxed atomic each. `Histogram` keeps fixed bucket bounds
//    chosen at registration and atomic per-bucket counts, so `observe` is a
//    couple of relaxed atomic adds.
//  - Registration is the cold path (mutex-guarded). `Registry` hands out
//    `shared_ptr` instruments and keeps only weak references: dropping the
//    last owner handle unregisters the metric, so per-run components (a CLI
//    scenario's cache, a test's server) clean up after themselves.
//    Each metric name exports exactly one instrument: re-registering a live
//    name replaces it — "last registration wins" — which is what lets
//    sequential `Server` instances in one process each export fresh
//    zero-based counters.
//  - Callback metrics (`counter_fn`, `gauge_fn`) bridge components whose
//    source of truth is an existing atomic (canonicalization counters,
//    `VerdictCache::Stats`, queue depths): the value is pulled at
//    collection time, never duplicated.
//
// Determinism contract: nothing in this registry may feed a deterministic
// document. Metrics are scheduling-dependent by nature (cache hit counts,
// latencies, queue depths) and belong only to the volatile surfaces —
// `/v1/metrics`, `GET /metrics`, access logs, traces. The byte-gated JSON
// documents (run/sweep/bench defaults) must render identically whether the
// registry is busy or empty; tests enforce this.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace locald::obs {

// Monotonic counter. Only the server's acceptor and connection threads add
// to counters, once per request, connection or response; pool loops never.
class Counter {
 public:
  void add(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Point-in-time signed value (queue depths, entry counts).
class Gauge {
 public:
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed-bucket histogram: bounds are upper limits (`le`), strictly
// increasing, with an implicit +Inf bucket appended. `observe` is two
// relaxed atomic adds; `snapshot` returns per-bucket (non-cumulative)
// counts plus the exact total count and sum.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;         // finite bounds; +Inf implied last
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;

  // {0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 10} seconds — the default grid
  // for request/stage latencies.
  static const std::vector<double>& default_latency_buckets_seconds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};  // CAS-loop add (pre-C++20 portable)
};

enum class MetricType { counter, gauge, histogram };

// Opaque keep-alive handle for callback registrations: the registration
// lives exactly as long as some copy of the handle does.
using MetricHandle = std::shared_ptr<void>;

class Registry {
 public:
  // Owned instruments. `name` must match [a-zA-Z_:][a-zA-Z0-9_:]* (checked;
  // violations throw BugError — a bad metric name is a locald defect).
  // Registering a name that is already live replaces its exported
  // instrument; registering it with a different type throws.
  std::shared_ptr<Counter> counter(const std::string& name,
                                   const std::string& help);
  std::shared_ptr<Gauge> gauge(const std::string& name,
                               const std::string& help);
  std::shared_ptr<Histogram> histogram(const std::string& name,
                                       const std::string& help,
                                       std::vector<double> upper_bounds);

  // Callback instruments: the value is pulled from `fn` at collection time.
  // The returned handle is the registration's lifetime.
  MetricHandle counter_fn(const std::string& name, const std::string& help,
                          std::function<std::uint64_t()> fn);
  MetricHandle gauge_fn(const std::string& name, const std::string& help,
                        std::function<double()> fn);

  // Prometheus text exposition format 0.0.4: families sorted by name, one
  // `# HELP` + `# TYPE` pair and one instrument's samples per family, HELP
  // text escaped (\\, \n). Expired (dropped-handle) families are pruned as a
  // side effect.
  std::string render_prometheus();

  // Number of live metric families (expired ones pruned); for tests.
  std::size_t family_count();

 private:
  // Appends the family's sample lines, each starting with `name`.
  using Samples = std::function<void(const std::string& name,
                                     std::string& out)>;
  struct Family {
    std::string help;
    MetricType type = MetricType::counter;
    std::weak_ptr<void> owner;  // the exported instrument or callback
    Samples samples;            // reads `owner`; called only while it lives
  };

  // The one registration path: checks the name and the type, then makes
  // `owner` the name's exported instrument.
  void add(const std::string& name, const std::string& help, MetricType type,
           const std::shared_ptr<void>& owner, Samples samples);
  void prune();  // caller holds mu_

  std::mutex mu_;
  std::map<std::string, Family> families_;
};

// The process-wide registry every subsystem registers into.
Registry& registry();

}  // namespace locald::obs
