// Unit tests for the observability layer: registry concurrency exactness,
// Prometheus exposition grammar and escaping, instrument lifetime, span
// tracing (JSON well-formedness + the same-thread containment invariant),
// the traced-vs-untraced byte-identity contract, the stopwatch, and the
// NDJSON access log.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/sweep.h"
#include "obs/access_log.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/json.h"

namespace locald {
namespace {

// --------------------------------------------------------------------------
// Registry: concurrency exactness
// --------------------------------------------------------------------------

TEST(Metrics, CounterExactUnderConcurrency) {
  auto c = obs::registry().counter("test_obs_conc_counter_total",
                                   "concurrency test counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c->add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(Metrics, HistogramExactUnderConcurrency) {
  auto h = obs::registry().histogram("test_obs_conc_hist_seconds",
                                     "concurrency test histogram",
                                     {0.5, 1.5, 2.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->observe(static_cast<double>(t % 4));  // values 0..3
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = h->snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 finite buckets + +Inf
  // 8 threads cycle t % 4, so exactly 2 threads land in each bucket.
  for (const std::uint64_t count : snap.counts) {
    EXPECT_EQ(count, static_cast<std::uint64_t>(2 * kPerThread));
  }
  // Sum of observations: 2*(0+1+2+3)*kPerThread.
  EXPECT_DOUBLE_EQ(snap.sum, 2.0 * 6.0 * kPerThread);
}

TEST(Metrics, GaugeAdds) {
  auto g = obs::registry().gauge("test_obs_gauge", "gauge test");
  g->add(5);
  g->add(-7);
  EXPECT_EQ(g->value(), -2);
}

// --------------------------------------------------------------------------
// Registry: lifetime semantics
// --------------------------------------------------------------------------

TEST(Metrics, DroppingHandleUnregisters) {
  const std::size_t before = obs::registry().family_count();
  {
    auto c = obs::registry().counter("test_obs_transient_total", "transient");
    c->add(3);
    EXPECT_EQ(obs::registry().family_count(), before + 1);
  }
  // The only owner handle is gone; the family prunes on next collection.
  EXPECT_EQ(obs::registry().family_count(), before);
  const std::string text = obs::registry().render_prometheus();
  EXPECT_EQ(text.find("test_obs_transient_total"), std::string::npos);
}

TEST(Metrics, LastRegistrationWins) {
  auto a = obs::registry().counter("test_obs_rereg_total", "re-registration");
  a->add(41);
  auto b = obs::registry().counter("test_obs_rereg_total", "re-registration");
  b->add(1);
  // `b` replaced `a` as the exported child; the exposition shows 1, not 42.
  const std::string text = obs::registry().render_prometheus();
  EXPECT_NE(text.find("test_obs_rereg_total 1\n"), std::string::npos);
  EXPECT_EQ(text.find("test_obs_rereg_total 41"), std::string::npos);
}

TEST(Metrics, CallbackCounterPullsAtCollection) {
  std::uint64_t source = 7;
  auto handle = obs::registry().counter_fn(
      "test_obs_cb_total", "callback counter", [&] { return source; });
  std::string text = obs::registry().render_prometheus();
  EXPECT_NE(text.find("test_obs_cb_total 7\n"), std::string::npos);
  source = 123;
  text = obs::registry().render_prometheus();
  EXPECT_NE(text.find("test_obs_cb_total 123\n"), std::string::npos);
}

// --------------------------------------------------------------------------
// Prometheus exposition grammar
// --------------------------------------------------------------------------

TEST(Metrics, PrometheusGrammarAndEscaping) {
  auto c = obs::registry().counter("test_obs_escaped_total",
                                   "help with \\ backslash\nand newline");
  c->add(2);
  const std::string text = obs::registry().render_prometheus();
  EXPECT_NE(text.find("# HELP test_obs_escaped_total help with \\\\ "
                      "backslash\\nand newline\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_obs_escaped_total counter\n"),
            std::string::npos);
}

TEST(Metrics, PrometheusHistogramCumulativeWithInf) {
  auto h = obs::registry().histogram("test_obs_expo_hist_seconds",
                                     "exposition histogram", {1.0, 2.0});
  h->observe(0.5);
  h->observe(1.5);
  h->observe(99.0);
  const std::string text = obs::registry().render_prometheus();
  EXPECT_NE(text.find("# TYPE test_obs_expo_hist_seconds histogram\n"),
            std::string::npos);
  // Buckets are cumulative and the +Inf bucket equals the total count.
  EXPECT_NE(text.find("test_obs_expo_hist_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_expo_hist_seconds_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_expo_hist_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_expo_hist_seconds_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_expo_hist_seconds_sum 101\n"),
            std::string::npos);
}

TEST(Metrics, RejectsMalformedNames) {
  EXPECT_THROW(obs::registry().counter("bad-name", "dash"), BugError);
  EXPECT_THROW(obs::registry().counter("0leading", "digit"), BugError);
  EXPECT_THROW(obs::registry().counter("", "empty"), BugError);
}

TEST(Metrics, ReRegisteringWithAnotherTypeThrows) {
  auto c = obs::registry().counter("test_obs_typed_total", "typed");
  c->add(5);
  EXPECT_THROW(obs::registry().gauge("test_obs_typed_total", "typed"),
               BugError);
  EXPECT_THROW(obs::registry().histogram("test_obs_typed_total", "typed",
                                         {1.0}),
               BugError);
  EXPECT_THROW(obs::registry().gauge_fn("test_obs_typed_total", "typed",
                                        [] { return 1.0; }),
               BugError);
  // The rejected registrations left the live counter exported.
  const std::string text = obs::registry().render_prometheus();
  EXPECT_NE(text.find("# TYPE test_obs_typed_total counter\n"
                      "test_obs_typed_total 5\n"),
            std::string::npos);
}

TEST(Metrics, ExpiredFamilyDoesNotBlockAnotherType) {
  {
    auto c = obs::registry().counter("test_obs_retyped", "dropped counter");
    c->add(1);
  }
  // No scrape in between, so the counter's family is expired but not yet
  // pruned: it must not count as a conflict.
  std::shared_ptr<obs::Gauge> g;
  ASSERT_NO_THROW(g = obs::registry().gauge("test_obs_retyped", "a gauge"));
  g->add(2);
  const std::string text = obs::registry().render_prometheus();
  EXPECT_NE(text.find("# TYPE test_obs_retyped gauge\n"
                      "test_obs_retyped 2\n"),
            std::string::npos);
  // The live gauge still rejects a conflicting registration.
  EXPECT_THROW(obs::registry().counter("test_obs_retyped", "a counter"),
               BugError);
}

// The exact exposition bytes of one instrument of each kind, a replaced and
// a dropped registration, and an escaped HELP text. Only lines of this
// test's families are compared, so other tests' metrics do not interfere.
TEST(Metrics, ExpositionBytesArePinned) {
  auto counter = obs::registry().counter("test_obs_pin_counter_total",
                                         "pinned counter");
  counter->add(3);
  auto gauge = obs::registry().gauge("test_obs_pin_gauge",
                                     "pinned \\ gauge\nsecond line");
  gauge->add(-2);
  auto hist = obs::registry().histogram("test_obs_pin_hist_seconds",
                                        "pinned histogram", {0.25, 1.0});
  hist->observe(0.125);
  hist->observe(0.5);
  hist->observe(2.0);
  auto counter_cb = obs::registry().counter_fn(
      "test_obs_pin_cb_total", "pinned callback counter",
      [] { return std::uint64_t{7}; });
  auto gauge_cb = obs::registry().gauge_fn(
      "test_obs_pin_cb_ratio", "pinned callback gauge", [] { return 0.5; });
  auto replaced = obs::registry().counter("test_obs_pin_replaced_total",
                                          "pinned replacement");
  replaced->add(41);
  auto replacement = obs::registry().counter("test_obs_pin_replaced_total",
                                             "pinned replacement");
  replacement->add(1);
  obs::registry().counter("test_obs_pin_dropped_total", "dropped")->add(9);

  std::istringstream text(obs::registry().render_prometheus());
  std::string pinned;
  for (std::string line; std::getline(text, line);) {
    if (line.find("test_obs_pin_") != std::string::npos) pinned += line + "\n";
  }
  EXPECT_EQ(pinned,
            "# HELP test_obs_pin_cb_ratio pinned callback gauge\n"
            "# TYPE test_obs_pin_cb_ratio gauge\n"
            "test_obs_pin_cb_ratio 0.5\n"
            "# HELP test_obs_pin_cb_total pinned callback counter\n"
            "# TYPE test_obs_pin_cb_total counter\n"
            "test_obs_pin_cb_total 7\n"
            "# HELP test_obs_pin_counter_total pinned counter\n"
            "# TYPE test_obs_pin_counter_total counter\n"
            "test_obs_pin_counter_total 3\n"
            "# HELP test_obs_pin_gauge pinned \\\\ gauge\\nsecond line\n"
            "# TYPE test_obs_pin_gauge gauge\n"
            "test_obs_pin_gauge -2\n"
            "# HELP test_obs_pin_hist_seconds pinned histogram\n"
            "# TYPE test_obs_pin_hist_seconds histogram\n"
            "test_obs_pin_hist_seconds_bucket{le=\"0.25\"} 1\n"
            "test_obs_pin_hist_seconds_bucket{le=\"1\"} 2\n"
            "test_obs_pin_hist_seconds_bucket{le=\"+Inf\"} 3\n"
            "test_obs_pin_hist_seconds_sum 2.625\n"
            "test_obs_pin_hist_seconds_count 3\n"
            "# HELP test_obs_pin_replaced_total pinned replacement\n"
            "# TYPE test_obs_pin_replaced_total counter\n"
            "test_obs_pin_replaced_total 1\n");
}

// --------------------------------------------------------------------------
// Tracing
// --------------------------------------------------------------------------

struct TraceEvent {
  std::int64_t tid = 0;
  std::int64_t ts = 0;
  std::int64_t dur = 0;
  std::int64_t depth = 0;
  std::string name;
};

std::vector<TraceEvent> parse_trace(const std::string& doc) {
  const JsonValue root = parse_json(doc);
  EXPECT_TRUE(root.is_object());
  const JsonValue* events = root.find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  std::vector<TraceEvent> out;
  for (const JsonValue& e : events->items()) {
    EXPECT_TRUE(e.is_object());
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_EQ(e.find("pid")->as_integer(), 1);
    TraceEvent ev;
    ev.tid = e.find("tid")->as_integer();
    ev.ts = e.find("ts")->as_integer();
    ev.dur = e.find("dur")->as_integer();
    ev.name = e.find("name")->as_string();
    ev.depth = e.find("args")->find("depth")->as_integer();
    out.push_back(ev);
  }
  return out;
}

TEST(Trace, InactiveByDefaultAndSpansAreFree) {
  ASSERT_FALSE(obs::tracing_active());
  {
    obs::Span span("never-recorded");
  }
  EXPECT_EQ(obs::tracing_event_count(), 0u);
}

TEST(Trace, NestedSpansSatisfyContainment) {
  obs::tracing_start();
  {
    obs::Span outer("outer", "detail with \"quotes\"");
    {
      obs::Span inner("inner");
    }
    {
      obs::Span sibling("sibling");
    }
  }
  std::thread worker([] {
    obs::Span span("worker-span");
  });
  worker.join();
  const std::string doc = obs::tracing_stop_json();
  EXPECT_FALSE(obs::tracing_active());

  const auto events = parse_trace(doc);
  ASSERT_EQ(events.size(), 4u);
  // The worker thread's event carries a different tid than the main three.
  std::int64_t main_tid = -1;
  for (const auto& e : events) {
    if (e.name == "outer") main_tid = e.tid;
  }
  ASSERT_NE(main_tid, -1);
  int same_tid = 0;
  for (const auto& e : events) {
    same_tid += (e.tid == main_tid);
  }
  EXPECT_EQ(same_tid, 3);

  // Containment invariant: two events on one thread are either disjoint or
  // one contains the other, and a deeper span never contains a shallower.
  for (const auto& a : events) {
    for (const auto& b : events) {
      if (&a == &b || a.tid != b.tid) continue;
      const auto a_end = a.ts + a.dur;
      const auto b_end = b.ts + b.dur;
      const bool disjoint = a_end <= b.ts || b_end <= a.ts;
      const bool a_contains_b = a.ts <= b.ts && b_end <= a_end;
      const bool b_contains_a = b.ts <= a.ts && a_end <= b_end;
      EXPECT_TRUE(disjoint || a_contains_b || b_contains_a)
          << a.name << " vs " << b.name;
      if (a_contains_b && a.name != b.name) {
        EXPECT_LE(a.depth, b.depth) << a.name << " contains " << b.name;
      }
    }
  }
  // "outer" contains both "inner" and "sibling"; the two siblings at equal
  // depth are disjoint.
  for (const auto& e : events) {
    if (e.name == "inner" || e.name == "sibling") {
      EXPECT_EQ(e.depth, 1);
    }
    if (e.name == "outer" || e.name == "worker-span") {
      EXPECT_EQ(e.depth, 0);
    }
  }
}

TEST(Trace, StopClearsAndRestartDropsStaleEvents) {
  obs::tracing_start();
  {
    obs::Span span("first-session");
  }
  EXPECT_EQ(obs::tracing_event_count(), 1u);
  (void)obs::tracing_stop_json();
  obs::tracing_start();
  EXPECT_EQ(obs::tracing_event_count(), 0u);
  const auto events = parse_trace(obs::tracing_stop_json());
  EXPECT_TRUE(events.empty());
}

TEST(Trace, StopToFileWritesTheDocument) {
  obs::tracing_start();
  {
    obs::Span span("to-file");
  }
  const std::string path = "test_obs_trace_out.json";
  std::string error;
  ASSERT_TRUE(obs::tracing_stop_to_file(path, &error)) << error;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto events = parse_trace(buf.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "to-file");
  std::remove(path.c_str());
}

// The determinism contract: the deterministic sweep document must be
// byte-identical whether or not a trace session is collecting.
TEST(Trace, SweepBytesIdenticalWithTracingOn) {
  cli::SweepOptions sweep;
  sweep.seed = 7;
  sweep.sizes = {6, 8};
  sweep.trials = 2;
  std::ostringstream untraced;
  const int rc1 = cli::run_sweep("promise-cycle", sweep, untraced);

  obs::tracing_start();
  std::ostringstream traced;
  const int rc2 = cli::run_sweep("promise-cycle", sweep, traced);
  const auto events = parse_trace(obs::tracing_stop_json());

  EXPECT_EQ(rc1, rc2);
  EXPECT_EQ(untraced.str(), traced.str());
  // The traced run actually recorded its cells.
  int cells = 0;
  for (const auto& e : events) {
    cells += (e.name == "sweep-cell");
  }
  EXPECT_EQ(cells, 2);
}

// --------------------------------------------------------------------------
// Stopwatch and process facts
// --------------------------------------------------------------------------

TEST(Stopwatch, Monotone) {
  obs::Stopwatch sw;
  const double a = sw.elapsed_seconds();
  EXPECT_GE(a, 0.0);
  const double b = sw.elapsed_seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(sw.elapsed_ms(), b * 1000.0);
}

TEST(Process, PeakRssAndUptimeArePositive) {
  EXPECT_GT(obs::peak_rss_kb(), 0u);
  const double up = obs::uptime_seconds();
  EXPECT_GE(up, 0.0);
  EXPECT_GE(obs::uptime_seconds(), up);
}

// --------------------------------------------------------------------------
// Access log
// --------------------------------------------------------------------------

TEST(AccessLog, WritesParseableNdjsonLines) {
  const std::string path = "test_obs_access.log";
  std::remove(path.c_str());
  {
    obs::AccessLog log(path);
    obs::AccessEntry entry;
    entry.method = "POST";
    entry.path = "/v1/run";
    entry.status = 200;
    entry.response_bytes = 512;
    entry.duration_ms = 12.345;
    entry.worker = 3;
    entry.cache_hits = 9;
    log.write(entry);
    entry.method = "GET";
    entry.path = "/metrics\"quoted\"";
    entry.status = 404;
    log.write(entry);
    EXPECT_EQ(log.lines_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<JsonValue> lines;
  while (std::getline(in, line)) {
    lines.push_back(parse_json(line));
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("method")->as_string(), "POST");
  EXPECT_EQ(lines[0].find("path")->as_string(), "/v1/run");
  EXPECT_EQ(lines[0].find("status")->as_integer(), 200);
  EXPECT_EQ(lines[0].find("bytes")->as_integer(), 512);
  EXPECT_NEAR(lines[0].find("duration_ms")->as_double(), 12.345, 1e-3);
  EXPECT_EQ(lines[0].find("worker")->as_integer(), 3);
  EXPECT_EQ(lines[0].find("cache_hits")->as_integer(), 9);
  EXPECT_GT(lines[0].find("ts_ms")->as_integer(), 0);
  // Quotes in the path survive the JSON round trip.
  EXPECT_EQ(lines[1].find("path")->as_string(), "/metrics\"quoted\"");
  EXPECT_EQ(lines[1].find("status")->as_integer(), 404);
  std::remove(path.c_str());
}

TEST(AccessLog, AppendsAcrossInstances) {
  const std::string path = "test_obs_access_append.log";
  std::remove(path.c_str());
  obs::AccessEntry entry;
  entry.method = "GET";
  entry.path = "/healthz";
  entry.status = 200;
  {
    obs::AccessLog log(path);
    log.write(entry);
  }
  {
    obs::AccessLog log(path);
    log.write(entry);
  }
  std::ifstream in(path);
  std::string line;
  int count = 0;
  while (std::getline(in, line)) ++count;
  EXPECT_EQ(count, 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace locald
