// Traced layer driver of the locald benchmark.
//
// Times calls into each module's public functions on the inputs of the
// benchmark's workloads and prints the per-layer metrics as one JSON object
// on stdout. Every timed call sits inside an `obs::Span` recorded from this
// file (names like `graph.census`); the spans the library already emits
// (`build-graph`, `ball-census`, `local-run`, `http-request`, ...) nest inside
// them. The whole run is written as a Chrome trace to --trace-out.
//
//   perfbench_layers --seed N --threads T --trace-out FILE
//                    --mix FILE --populate FILE --store DIR --bodies FILE
//
// --mix and --populate hold the serve-mix requests, one per line as
// `METHOD<TAB>PATH<TAB>BODY`; they are replayed through `Server::handle`
// (no sockets). --bodies receives the replayed response bodies, each as
// `<byte count>\n<bytes>`, so the caller can compare them with the CLI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/context.h"
#include "exec/thread_pool.h"
#include "exec/verdict_cache.h"
#include "exec/verdict_store.h"
#include "gen/family.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "halting/gmr.h"
#include "halting/verifier.h"
#include "local/algorithm.h"
#include "local/ball.h"
#include "local/event_engine.h"
#include "local/fault_profile.h"
#include "local/identifiers.h"
#include "local/labeled_graph.h"
#include "local/simulator.h"
#include "local/sync_engine.h"
#include "oblivious/simulation.h"
#include "obs/trace.h"
#include "props/properties.h"
#include "server/http.h"
#include "server/server.h"
#include "support/format.h"
#include "support/rng.h"
#include "tm/fragments.h"
#include "tm/zoo.h"
#include "trees/audit.h"

namespace {

using namespace locald;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs `fn` inside a benchmark span and returns its wall time in seconds.
template <typename Fn>
double timed(const char* span_name, Fn&& fn) {
  obs::Span span(span_name);
  const Clock::time_point start = Clock::now();
  fn();
  return since(start);
}

struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> failures;

  void set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

struct Options {
  std::uint64_t seed = 1;
  int threads = 4;
  std::string trace_out;
  std::string mix;
  std::string populate;
  std::string store;
  std::string bodies;
};

// --- gen, graph, exec.census_speedup: the census-131k cells ----------------
//
// At locald's default seed, like the census-131k workload: random-regular's
// build time is geometric in the seed (whole-pairing rejection).
constexpr std::uint64_t kCensusSeed = 42;
constexpr std::int64_t kCensusSize = 131072;

void census_layers(exec::ThreadPool& pool, Report& r) {
  double build_s = 0, invariants_s = 0, census_s = 0, serial_s = 0;
  double balls = 0, raw_dups = 0, unique = 0;
  const std::uint64_t forms_before = graph::canonicalization_counters().forms;
  std::uint64_t forms_serial = 0;
  for (const char* family : {"random-regular", "torus", "hypercube"}) {
    const gen::FamilyInstanceSpec spec =
        gen::resolve_family_text(family, kCensusSize);
    graph::CsrGraph g;
    build_s += timed("gen.build", [&] { g = spec.build(kCensusSeed); });
    invariants_s += timed("graph.invariants", [&] {
      (void)graph::is_connected(g.span());
      (void)graph::is_bipartite(g.span());
    });
    const std::vector<std::string> payloads(
        static_cast<std::size_t>(g.node_count()));
    graph::BallCensusResult census;
    census_s += timed("graph.census", [&] {
      census = graph::canonical_census(g, payloads, 1, &pool);
    });
    const std::uint64_t forms_mid = graph::canonicalization_counters().forms;
    graph::BallCensusResult serial;
    serial_s += timed("graph.census.serial", [&] {
      serial = graph::canonical_census(g, payloads, 1, nullptr);
    });
    forms_serial += graph::canonicalization_counters().forms - forms_mid;
    r.check(serial.class_of == census.class_of &&
                serial.class_encoding == census.class_encoding,
            std::string("census differs across thread counts on ") + family);
    balls += static_cast<double>(g.node_count());
    raw_dups += static_cast<double>(census.raw_duplicates);
    unique += static_cast<double>(census.unique_structures);
  }
  const std::uint64_t forms_total =
      graph::canonicalization_counters().forms - forms_before;
  r.set("gen.build_s", build_s);
  r.set("graph.census_s", census_s);
  r.set("graph.invariants_s", invariants_s);
  r.set("graph.census.raw_dup_ratio", raw_dups / balls);
  r.set("graph.census.unique_structures", unique);
  // Forms of the pooled censuses only (the serial repeats are excluded).
  r.set("graph.canon.forms", static_cast<double>(forms_total - forms_serial));
  r.set("exec.census_speedup", serial_s / census_s);
}

// --- local: the faults-torus instance ----------------------------------------

local::Knowledge knowledge_of(const local::LabeledGraph& g,
                              const local::IdAssignment& ids,
                              graph::NodeId v) {
  // What v holds after one gather round: itself and its neighbours, each
  // with its full adjacency.
  local::Knowledge k;
  std::vector<graph::NodeId> members{v};
  for (graph::NodeId u : g.graph().neighbors(v)) members.push_back(u);
  for (graph::NodeId u : members) {
    local::KnownNode node;
    node.id = ids.of(u);
    node.label = g.label(u);
    for (graph::NodeId w : g.graph().neighbors(u)) node.adj.push_back(ids.of(w));
    k[node.id] = std::move(node);
  }
  return k;
}

void local_layers(const Options& opts, Report& r) {
  const gen::FamilyInstanceSpec spec =
      gen::resolve_family_text("torus", 4096);
  const local::LabeledGraph instance(spec.build(opts.seed));
  const local::IdAssignment ids =
      local::make_consecutive(instance.node_count());
  const auto alg = local::make_oblivious(
      "perfbench-even-degree", 1, [](const local::BallView& ball) {
        return ball.g.degree(ball.center) % 2 == 0 ? local::Verdict::yes
                                                   : local::Verdict::no;
      });

  local::RunResult direct;
  r.set("local.direct_eval_s", timed("local.direct-eval", [&] {
          direct = local::run_oblivious(*alg, instance);
        }));
  std::vector<local::Verdict> sync;
  r.set("local.sync_gather_s", timed("local.sync-gather", [&] {
          sync = local::run_via_message_passing(*alg, instance, ids);
        }));
  local::EventRunResult none;
  r.set("local.event_gather_s.none", timed("local.event-gather.none", [&] {
          none = local::run_via_event_engine(
              *alg, instance, ids, local::resolve_faults_text("none"),
              opts.seed);
        }));
  local::EventRunResult chaos;
  const double chaos_s = timed("local.event-gather.chaos", [&] {
    chaos = local::run_via_event_engine(*alg, instance, ids,
                                        local::resolve_faults_text("chaos"),
                                        opts.seed);
  });
  r.set("local.event_gather_s.chaos", chaos_s);
  r.check(sync == direct.outputs, "sync gather differs from direct evaluation");
  r.check(none.verdicts == sync, "event engine (none) differs from sync");

  const local::EventStats& s = chaos.stats;
  r.set("local.event.events_dispatched",
        static_cast<double>(s.events_dispatched));
  r.set("local.event.ns_per_event",
        chaos_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                            1, s.events_dispatched)));
  r.set("local.event.retransmissions", static_cast<double>(s.retransmissions));
  r.set("local.event.fragments_sent", static_cast<double>(s.fragments_sent));
  r.set("local.event.max_queue_depth", static_cast<double>(s.max_queue_depth));

  // Codec: the knowledge a node holds after the gather, for a node sample.
  const graph::NodeId sample =
      std::min<graph::NodeId>(instance.node_count(), 2048);
  std::vector<local::Knowledge> know;
  std::vector<std::string> wire(static_cast<std::size_t>(sample));
  for (graph::NodeId v = 0; v < sample; ++v) {
    know.push_back(knowledge_of(instance, ids, v));
  }
  double bytes = 0;
  std::size_t roundtrips = 0;
  double codec_s = 0;
  while (codec_s < 0.2) {
    codec_s += timed("local.codec", [&] {
      for (graph::NodeId v = 0; v < sample; ++v) {
        const auto i = static_cast<std::size_t>(v);
        wire[i] = local::encode_knowledge(ids.of(v), know[i]);
        const auto decoded = local::decode_knowledge(wire[i]);
        if (roundtrips == 0) {
          r.check(decoded.first == ids.of(v) && decoded.second == know[i],
                  "knowledge codec round trip");
          bytes += static_cast<double>(wire[i].size());
        }
      }
    });
    roundtrips += static_cast<std::size_t>(sample);
  }
  r.set("local.codec.bytes_per_message", bytes / sample);
  r.set("local.codec.roundtrip_us", codec_s * 1e6 / roundtrips);

  std::size_t rebuilt = 0;
  double rebuild_s = 0;
  while (rebuild_s < 0.1) {
    rebuild_s += timed("local.ball-from-knowledge", [&] {
      for (graph::NodeId v = 0; v < sample; ++v) {
        const local::Ball ball = local::ball_from_knowledge(
            ids.of(v), know[static_cast<std::size_t>(v)], 1);
        r.check(ball.node_count() ==
                    instance.graph().degree(v) + 1,
                "ball_from_knowledge size");
      }
    });
    rebuilt += static_cast<std::size_t>(sample);
  }
  r.set("local.ball_from_knowledge_us", rebuild_s * 1e6 / rebuilt);
}

// --- halting, tm, trees, oblivious: the paper-suite layers ------------------

void paper_layers(const Options& opts, exec::ThreadPool& pool, Report& r) {
  tm::FragmentPolicy policy;
  policy.max_fragments = 400;  // fig2-gmr's default
  policy.seed = opts.seed;
  const auto verifier = halting::make_gmr_verifier(3, policy, false, 4096);
  exec::VerdictCache cache;
  // No pool: the verifier's per-machine memo is unsynchronized, so it is
  // evaluated on one thread, as the benchmark's fig2-gmr is.
  exec::ExecContext ctx;
  ctx.cache = &cache;
  double build_s = 0, verify_s = 0, fragments_s = 0;
  for (const tm::ZooEntry& e : tm::small_zoo()) {
    fragments_s += timed("tm.fragments",
                         [&] { (void)tm::count_fragments(e.machine, 3); });
    if (!e.halts) continue;
    const halting::GmrParams params{e.machine, 1, 3, policy, false, 4096};
    halting::GmrInstance inst;
    build_s += timed("halting.build-gmr",
                     [&] { inst = halting::build_gmr(params); });
    bool accepted = false;
    verify_s += timed("halting.verify", [&] {
      accepted = local::run_oblivious(*verifier, inst.graph, {ctx}).accepted;
    });
    r.check(accepted, "G(M, r) verifier rejected " + e.machine.name());
  }
  const exec::VerdictCache::Stats cs = cache.stats();
  r.set("halting.build_gmr_s", build_s);
  r.set("halting.verify_s", verify_s);
  r.set("halting.verify.cache_hit_ratio",
        static_cast<double>(cs.hits) /
            static_cast<double>(std::max<std::uint64_t>(1, cs.hits + cs.misses)));
  r.set("tm.fragments_s", fragments_s);

  // fig1-layered-trees' largest audit: r = 3, sampled, canonical re-check.
  trees::TreeParams tp;
  tp.r = 3;
  Rng tree_rng(opts.seed);
  trees::TreeAuditResult audit;
  r.set("trees.audit_s", timed("trees.audit", [&] {
          audit = trees::audit_tree_coverage(tp, 100'000, 100, tree_rng);
        }));
  r.check(audit.full_patch_coverage() && audit.canonical_mismatch == 0,
          "tree coverage audit");

  // table1-matrix's (¬B, ¬C) quadrant: A* over an id-reading colouring
  // decider, evaluated ball by ball so every evaluation's search is counted.
  auto reading = std::make_shared<local::LambdaAlgorithm>(
      "coloring-with-ids", 1, false, [](const local::BallView& ball) {
        (void)ball.center_id();
        const auto c = ball.center_label().at(0);
        if (c < 0 || c >= 3) return local::Verdict::no;
        for (graph::NodeId w : ball.g.neighbors(ball.center)) {
          if (ball.label(w).at(0) == c) return local::Verdict::no;
        }
        return local::Verdict::yes;
      });
  oblivious::SimulationOptions sim_opts;
  sim_opts.id_universe = 64;
  sim_opts.max_assignments = 5'000;
  sim_opts.pool = &pool;
  const auto simulated = oblivious::make_oblivious_simulation(reading, sim_opts);
  const auto property = props::proper_coloring_property(3);
  Rng rng(opts.seed);
  double tried = 0;
  r.set("oblivious.astar_s", timed("oblivious.astar", [&] {
          for (int trial = 0; trial < 12; ++trial) {
            local::LabeledGraph g(
                graph::make_random_connected(8, 4, rng.next_u64()));
            for (graph::NodeId v = 0; v < g.node_count(); ++v) {
              g.set_label(v, local::Label{
                                 static_cast<std::int64_t>(rng.below(3))});
            }
            bool all_yes = true;
            for (graph::NodeId v = 0; v < g.node_count(); ++v) {
              const local::Ball ball = local::extract_ball(g, nullptr, v, 1);
              all_yes = simulated->evaluate(ball.view()) ==
                            local::Verdict::yes &&
                        all_yes;
              tried += static_cast<double>(
                  simulated->last_stats().assignments_tried);
            }
            r.check(all_yes == property->contains(g),
                    "A* disagrees with the colouring oracle");
          }
        }));
  r.set("oblivious.assignments_tried", tried);
}

// --- server: the serve-mix replayed without sockets -------------------------

struct MixRequest {
  std::string method;
  std::string path;
  std::string body;
};

std::vector<MixRequest> read_mix(const std::string& path) {
  std::ifstream in(path);
  LOCALD_CHECK(static_cast<bool>(in), "cannot open mix file " + path);
  std::vector<MixRequest> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t a = line.find('\t');
    const std::size_t b = line.find('\t', a + 1);
    LOCALD_CHECK(a != std::string::npos && b != std::string::npos,
                 "malformed mix line: " + line);
    out.push_back({line.substr(0, a), line.substr(a + 1, b - a - 1),
                   line.substr(b + 1)});
  }
  return out;
}

server::HttpRequest to_http(const MixRequest& m) {
  server::HttpRequest req;
  req.method = m.method;
  req.target = m.path;
  req.version = "HTTP/1.1";
  req.headers.emplace_back("host", "localhost");
  if (!m.body.empty()) {
    req.headers.emplace_back("content-type", "application/json");
    req.headers.emplace_back("content-length", std::to_string(m.body.size()));
  }
  req.body = m.body;
  return req;
}

std::string wire_bytes(const MixRequest& m) {
  std::string out = m.method + " " + m.path +
                    " HTTP/1.1\r\nHost: localhost\r\n";
  if (!m.body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(m.body.size()) + "\r\n";
  }
  return out + "\r\n" + m.body;
}

const char* request_class(const MixRequest& m) {
  if (m.path == "/v1/run") return "run";
  if (m.path == "/v1/sweep") return "sweep";
  return "meta";
}

void server_layers(const Options& opts, Report& r) {
  const std::vector<MixRequest> mix = read_mix(opts.mix);
  const std::vector<MixRequest> populate = read_mix(opts.populate);
  server::ServeOptions so;
  so.port = 0;
  so.threads = 1;  // like serve-mix: the mix's fig2-gmr runs the verifier
  so.store_path = opts.store;
  {
    // The untimed earlier process: writes the populate set to the store.
    obs::Span span("server.populate");
    server::Server writer(so);
    writer.start();
    for (const MixRequest& m : populate) {
      r.check(writer.handle(to_http(m)).status == 200, "populate " + m.body);
    }
  }
  {
    std::uint64_t loaded = 0;
    r.set("exec.store.open_s", timed("exec.store.open", [&] {
            const exec::VerdictStore store(opts.store);
            loaded = store.stats().records_loaded;
          }));
    r.set("exec.store.records_loaded", static_cast<double>(loaded));
  }

  server::Server srv(so);
  srv.start();
  const server::MetricsSnapshot before = srv.metrics();
  std::map<std::string, std::pair<double, int>> by_class;
  std::vector<server::HttpResponse> responses;
  std::ofstream bodies(opts.bodies, std::ios::binary);
  for (const MixRequest& m : mix) {
    const server::HttpRequest req = to_http(m);
    server::HttpResponse resp;
    auto& slot = by_class[request_class(m)];
    slot.first += timed("server.handle", [&] { resp = srv.handle(req); });
    slot.second += 1;
    r.check(resp.status == 200, cat("status ", resp.status, " for ", m.path));
    bodies << resp.body.size() << "\n" << resp.body;
    responses.push_back(std::move(resp));
  }
  const server::MetricsSnapshot after = srv.metrics();
  srv.stop();
  for (const char* cls : {"meta", "run", "sweep"}) {
    const auto& slot = by_class[cls];
    r.set(std::string("server.handle_ms.") + cls,
          1e3 * slot.first / std::max(1, slot.second));
  }
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double store_hits =
      static_cast<double>(after.cache.store_hits - before.cache.store_hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  r.set("exec.cache.hit_ratio",
        (hits + store_hits) / std::max(1.0, hits + store_hits + misses));
  r.set("exec.store.hit_ratio", store_hits / std::max(1.0, store_hits + misses));
  r.set("exec.store.appended",
        static_cast<double>(after.store.appended - before.store.appended));

  // HTTP framing: the mix as one pipelined byte stream, parsed repeatedly.
  std::string stream;
  for (const MixRequest& m : mix) stream += wire_bytes(m);
  std::size_t parsed = 0;
  double parse_s = 0;
  while (parse_s < 0.1) {
    parse_s += timed("server.http.parse", [&] {
      std::size_t pos = 0;
      const server::ByteSource source = [&](char* buf, std::size_t len) {
        const std::size_t n = std::min(len, stream.size() - pos);
        std::copy_n(stream.data() + pos, n, buf);
        pos += n;
        return static_cast<long>(n);
      };
      std::string leftover;
      for (const MixRequest& m : mix) {
        const server::ParseResult p =
            server::read_http_request(source, so.limits, &leftover);
        r.check(p.status == 200 && p.request.body == m.body, "http parse");
      }
    });
    parsed += mix.size();
  }
  r.set("server.http.parse_us", parse_s * 1e6 / parsed);
  std::size_t serialized = 0;
  double serialize_s = 0;
  std::size_t sink = 0;
  while (serialize_s < 0.1) {
    serialize_s += timed("server.http.serialize", [&] {
      for (const server::HttpResponse& resp : responses) {
        sink += server::serialize_http_response(resp, true).size();
      }
    });
    serialized += responses.size();
  }
  r.check(sink > 0, "serialize");
  r.set("server.http.serialize_us", serialize_s * 1e6 / serialized);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

int run(const Options& opts) {
  Report report;
  obs::tracing_start();
  {
    obs::Span span("perfbench.layers");
    exec::ThreadPool pool(opts.threads);
    census_layers(pool, report);
    local_layers(opts, report);
    paper_layers(opts, pool, report);
    server_layers(opts, report);
  }
  std::string error;
  if (!obs::tracing_stop_to_file(opts.trace_out, &error)) {
    std::cerr << error << "\n";
    return 2;
  }
  std::ostringstream out;
  out << "{\"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    out << (i ? ", " : "") << json_quote(report.metrics[i].first) << ": "
        << number(report.metrics[i].second);
  }
  out << "}, \"checks_failed\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    out << (i ? ", " : "") << json_quote(report.failures[i]);
  }
  out << "]}\n";
  std::cout << out.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      opts.seed = std::stoull(value);
    } else if (flag == "--threads") {
      opts.threads = std::stoi(value);
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--mix") {
      opts.mix = value;
    } else if (flag == "--populate") {
      opts.populate = value;
    } else if (flag == "--store") {
      opts.store = value;
    } else if (flag == "--bodies") {
      opts.bodies = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (opts.trace_out.empty() || opts.mix.empty() || opts.populate.empty() ||
      opts.store.empty() || opts.bodies.empty()) {
    std::cerr << "usage: perfbench_layers --seed N --threads T --trace-out F "
                 "--mix F --populate F --store DIR --bodies F\n";
    return 2;
  }
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << "\n";
    return 1;
  }
}
