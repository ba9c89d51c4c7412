#include "local/event_engine.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <queue>
#include <tuple>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "support/check.h"

namespace locald::local {

namespace {

// Process-wide counters bridged into the metrics registry on first use —
// the graph::canonicalization_counters() pattern. Handles are deliberately
// leaked: the counters live for the whole process.
std::atomic<std::uint64_t> g_events_dispatched{0};
std::atomic<std::uint64_t> g_messages_dropped{0};
std::atomic<std::uint64_t> g_messages_fragmented{0};
std::atomic<std::uint64_t> g_messages_delayed{0};
std::atomic<std::uint64_t> g_max_queue_depth{0};

void raise_max(std::atomic<std::uint64_t>& target, std::uint64_t candidate) {
  std::uint64_t seen = target.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !target.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
  }
}

void ensure_event_metrics_registered() {
  static const bool once = [] {
    obs::Registry& reg = obs::registry();
    static std::vector<obs::MetricHandle> handles;
    handles.push_back(reg.counter_fn(
        "locald_event_engine_events_total",
        "Events dispatched by the event-driven message-passing runtime",
        [] { return g_events_dispatched.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_event_engine_dropped_total",
        "Messages lost after exhausting every transmission attempt",
        [] { return g_messages_dropped.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_event_engine_fragments_total",
        "Fragments sent for payloads split across events",
        [] { return g_messages_fragmented.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_event_engine_delayed_total",
        "Messages delivered after their synchronous-round slot",
        [] { return g_messages_delayed.load(std::memory_order_relaxed); }));
    handles.push_back(reg.gauge_fn(
        "locald_event_engine_max_queue_depth",
        "High-water mark of pending events across all runs",
        [] {
          return static_cast<double>(
              g_max_queue_depth.load(std::memory_order_relaxed));
        }));
    return true;
  }();
  (void)once;
}

// Stream-plane salts: distinct logical randomness planes under one seed.
// Each decision is keyed by (salted seed, directed arc, round/attempt/
// fragment index), never by engine state, so the draw a message gets is
// independent of delivery order.
constexpr std::uint64_t kDropPlane = 0xD20Full;
constexpr std::uint64_t kDelayPlane = 0xDE1A7ull;
constexpr std::uint64_t kFragPlane = 0xF2A6ull;

std::uint64_t attempt_index(int round, std::int64_t attempt) {
  return (static_cast<std::uint64_t>(round) << 8) |
         static_cast<std::uint64_t>(attempt);
}

std::uint64_t fragment_index(int round, std::int64_t attempt, std::int64_t i) {
  return (static_cast<std::uint64_t>(round) << 16) |
         (static_cast<std::uint64_t>(attempt) << 8) |
         static_cast<std::uint64_t>(i);
}

// One fragment's arrival or (frag_total == 0) a definitive-loss
// notification for one inbox slot. A fragment is a contiguous slice of an
// immutable message, so it carries only its timing: every fragment of every
// arc shares the sender's one payload, and the slot resolves on its
// frag_total-th arrival.
struct Event {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;  // push order; breaks time ties deterministically
  graph::NodeId dst = 0;
  int port = 0;
  int round = 0;
  int frag_total = 0;
  std::shared_ptr<const std::string> payload;
};

struct LaterFirst {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
  }
};

// One inbox slot: (node, round, port). Resolves exactly once — with the
// delivered payload, or null on loss.
struct Slot {
  bool resolved = false;
  int arrivals = 0;
  std::shared_ptr<const std::string> payload;
};

class Engine {
 public:
  Engine(const FullInfoGather& gather, const LabeledGraph& g,
         const IdAssignment& ids, const FaultKnobs& knobs, std::uint64_t seed)
      : gather_(gather), g_(g), ids_(ids), knobs_(knobs), seed_(seed) {}

  // Floods to completion; afterwards state(v) is v's gathered knowledge.
  EventStats run();
  const std::string& state(graph::NodeId v) const {
    return *state_[static_cast<std::size_t>(v)];
  }

 private:
  const graph::CsrGraph& graph() const { return g_.graph(); }

  Slot& slot(graph::NodeId v, int round, int port) {
    const std::size_t deg = graph().neighbors(v).size();
    return slots_[static_cast<std::size_t>(v)]
                 [static_cast<std::size_t>(round) * deg +
                  static_cast<std::size_t>(port)];
  }

  // Port of node `u` in `v`'s inbox: the rank of `u` in v's (ascending)
  // neighbour list.
  int port_of(graph::NodeId v, graph::NodeId u) const {
    const auto nbrs = graph().neighbors(v);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
    LOCALD_ASSERT(it != nbrs.end() && *it == u, "arc endpoints must be adjacent");
    return static_cast<int>(it - nbrs.begin());
  }

  void push(Event e) {
    e.seq = next_seq_++;
    queue_.push(std::move(e));
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth,
                 static_cast<std::uint64_t>(queue_.size()));
  }

  void send_round(graph::NodeId v, int round, std::uint64_t now);
  void advance(graph::NodeId v, std::uint64_t now);

  const FullInfoGather& gather_;
  const LabeledGraph& g_;
  const IdAssignment& ids_;
  FaultKnobs knobs_;
  std::uint64_t seed_;

  // Each node's knowledge, immutable once computed: a round's sends share
  // it rather than copy it.
  std::vector<std::shared_ptr<const std::string>> state_;
  std::vector<int> round_of_;
  std::vector<std::vector<Slot>> slots_;
  // Max resolution time seen per (node, round): a node that buffered
  // early-arriving future-round messages must not advance its clock into
  // the past when it finally reaches that round.
  std::vector<std::vector<std::uint64_t>> round_time_;
  std::priority_queue<Event, std::vector<Event>, LaterFirst> queue_;
  std::uint64_t next_seq_ = 0;
  EventStats stats_;
};

void Engine::send_round(graph::NodeId v, int round, std::uint64_t now) {
  const std::shared_ptr<const std::string>& msg =
      state_[static_cast<std::size_t>(v)];
  const std::uint64_t n = static_cast<std::uint64_t>(g_.node_count());
  for (graph::NodeId w : graph().neighbors(v)) {
    const std::uint64_t arc = static_cast<std::uint64_t>(v) * n +
                              static_cast<std::uint64_t>(w);
    const int port = port_of(w, v);
    ++stats_.messages_sent;

    // Transmission attempts: the first non-dropped attempt delivers.
    std::int64_t attempt = 0;
    bool delivered = false;
    for (; attempt < knobs_.attempts; ++attempt) {
      const bool drop =
          knobs_.loss_per_mille > 0 &&
          static_cast<std::int64_t>(
              Rng::stream(seed_ ^ kDropPlane, arc,
                          attempt_index(round, attempt))
                  .below(1000)) < knobs_.loss_per_mille;
      if (!drop) {
        delivered = true;
        break;
      }
    }
    stats_.retransmissions += static_cast<std::uint64_t>(
        delivered ? attempt : knobs_.attempts - 1);

    if (!delivered) {
      // The engine is omniscient: it knows after the last attempt's slot
      // that nothing will arrive, and resolves the slot as lost then.
      ++stats_.messages_dropped;
      Event e;
      e.time = now + static_cast<std::uint64_t>(knobs_.attempts);
      e.dst = w;
      e.port = port;
      e.round = round;
      e.frag_total = 0;  // loss notification
      push(std::move(e));
      continue;
    }

    const std::uint64_t delay =
        knobs_.delay_max > 0
            ? Rng::stream(seed_ ^ kDelayPlane, arc,
                          attempt_index(round, attempt))
                  .below(static_cast<std::uint64_t>(knobs_.delay_max) + 1)
            : 0;
    const std::uint64_t base =
        now + 1 + static_cast<std::uint64_t>(attempt) + delay;

    // Fragment 0 rides the base delay; later fragments add their own
    // jitter, so the message completes at the latest arrival.
    const int frags = static_cast<int>(std::max<std::int64_t>(
        1, knobs_.fragments));
    std::uint64_t completion = base;
    for (int i = 0; i < frags; ++i) {
      const std::uint64_t jitter =
          (i > 0 && knobs_.delay_max > 0)
              ? Rng::stream(seed_ ^ kFragPlane, arc,
                            fragment_index(round, attempt, i))
                    .below(static_cast<std::uint64_t>(knobs_.delay_max) + 1)
              : 0;
      Event e;
      e.time = base + jitter;
      e.dst = w;
      e.port = port;
      e.round = round;
      e.frag_total = frags;
      e.payload = msg;
      completion = std::max(completion, e.time);
      push(std::move(e));
    }
    if (frags > 1) {
      stats_.fragments_sent += static_cast<std::uint64_t>(frags);
    }
    ++stats_.messages_delivered;
    if (completion > now + 1) {
      ++stats_.messages_delayed;
    }
  }
}

void Engine::advance(graph::NodeId v, std::uint64_t now) {
  const std::size_t vi = static_cast<std::size_t>(v);
  const std::size_t deg = graph().neighbors(v).size();
  std::uint64_t t = now;
  while (round_of_[vi] < gather_.rounds()) {
    const int round = round_of_[vi];
    bool complete = true;
    for (std::size_t p = 0; p < deg && complete; ++p) {
      complete = slot(v, round, static_cast<int>(p)).resolved;
    }
    if (!complete) {
      return;
    }
    t = std::max(t, round_time_[vi][static_cast<std::size_t>(round)]);
    // A finished round's slots are never read again: release the payloads.
    std::vector<std::string> inbox;
    inbox.reserve(deg);
    for (std::size_t p = 0; p < deg; ++p) {
      std::shared_ptr<const std::string> payload =
          std::move(slot(v, round, static_cast<int>(p)).payload);
      inbox.push_back(payload ? *payload : std::string());
    }
    state_[vi] = std::make_shared<const std::string>(
        gather_.update(*state_[vi], inbox));
    ++round_of_[vi];
    if (round_of_[vi] < gather_.rounds()) {
      send_round(v, round_of_[vi], t);
    }
  }
}

EventStats Engine::run() {
  LOCALD_CHECK(ids_.node_count() == g_.node_count(),
               "identifier assignment size mismatch");
  const graph::NodeId n = g_.node_count();
  const int rounds = gather_.rounds();
  state_.resize(static_cast<std::size_t>(n));
  round_of_.assign(static_cast<std::size_t>(n), 0);
  slots_.resize(static_cast<std::size_t>(n));
  round_time_.resize(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    state_[static_cast<std::size_t>(v)] = std::make_shared<const std::string>(
        gather_.init(ids_.of(v), g_.label(v)));
    const std::size_t deg = graph().neighbors(v).size();
    slots_[static_cast<std::size_t>(v)].resize(
        static_cast<std::size_t>(rounds) * deg);
    round_time_[static_cast<std::size_t>(v)].assign(
        static_cast<std::size_t>(rounds), 0);
  }

  // Round-0 sends happen at virtual time 0 in node-index order (the
  // deterministic analogue of "everyone starts at once").
  for (graph::NodeId v = 0; v < n && rounds > 0; ++v) {
    send_round(v, 0, 0);
  }
  // Isolated nodes have no inbox slots to wait for and run to completion.
  for (graph::NodeId v = 0; v < n; ++v) {
    advance(v, 0);
  }

  while (!queue_.empty()) {
    // The queue's top is const; moving the payload out requires the pop
    // dance. const_cast is safe: the element is removed immediately after.
    Event e = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    ++stats_.events_dispatched;
    Slot& s = slot(e.dst, e.round, e.port);
    LOCALD_ASSERT(!s.resolved, "inbox slot resolved twice");
    // A slot resolves on its last fragment, or on a loss notification
    // (frag_total == 0), which carries no payload.
    if (e.frag_total != 0 && ++s.arrivals < e.frag_total) {
      continue;
    }
    s.payload = std::move(e.payload);
    s.resolved = true;
    auto& rt = round_time_[static_cast<std::size_t>(e.dst)];
    rt[static_cast<std::size_t>(e.round)] =
        std::max(rt[static_cast<std::size_t>(e.round)], e.time);
    if (e.round == round_of_[static_cast<std::size_t>(e.dst)]) {
      advance(e.dst, e.time);
    }
  }

  for (graph::NodeId v = 0; v < n; ++v) {
    LOCALD_ASSERT(round_of_[static_cast<std::size_t>(v)] == rounds,
                  "event queue drained before every node finished");
  }

  // Feed the volatile process-wide surface; never read back into results.
  ensure_event_metrics_registered();
  g_events_dispatched.fetch_add(stats_.events_dispatched,
                                std::memory_order_relaxed);
  g_messages_dropped.fetch_add(stats_.messages_dropped,
                               std::memory_order_relaxed);
  g_messages_fragmented.fetch_add(stats_.fragments_sent,
                                  std::memory_order_relaxed);
  g_messages_delayed.fetch_add(stats_.messages_delayed,
                               std::memory_order_relaxed);
  raise_max(g_max_queue_depth, stats_.max_queue_depth);
  return stats_;
}

}  // namespace

FloodResult run_flood(const std::vector<const LocalAlgorithm*>& algs,
                      const LabeledGraph& g, const IdAssignment& ids,
                      const FaultProfileInstance& profile, std::uint64_t seed) {
  LOCALD_CHECK(!algs.empty(), "a flood needs at least one algorithm");
  const FullInfoGather gather(algs.front()->horizon());
  for (const LocalAlgorithm* alg : algs) {
    LOCALD_CHECK(alg->horizon() == gather.horizon(),
                 "one flood serves algorithms of one horizon");
  }
  Engine engine(gather, g, ids, profile.knobs(), seed);
  FloodResult result;
  result.stats = engine.run();
  const std::size_t n = static_cast<std::size_t>(g.node_count());
  result.verdicts.assign(algs.size(), std::vector<Verdict>(n));
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const Ball ball = gather.ball(engine.state(v));
    const BallView view = ball.view();
    for (std::size_t a = 0; a < algs.size(); ++a) {
      result.verdicts[a][static_cast<std::size_t>(v)] = algs[a]->evaluate(
          algs[a]->id_oblivious() ? view.without_ids() : view);
    }
  }
  return result;
}

EventRunResult run_via_event_engine(const LocalAlgorithm& alg,
                                    const LabeledGraph& g,
                                    const IdAssignment& ids,
                                    const FaultProfileInstance& profile,
                                    std::uint64_t seed) {
  FloodResult flood = run_flood({&alg}, g, ids, profile, seed);
  return {std::move(flood.verdicts.front()), flood.stats};
}

EventEngineCounters event_engine_counters() {
  ensure_event_metrics_registered();
  EventEngineCounters out;
  out.events_dispatched = g_events_dispatched.load(std::memory_order_relaxed);
  out.messages_dropped = g_messages_dropped.load(std::memory_order_relaxed);
  out.messages_fragmented =
      g_messages_fragmented.load(std::memory_order_relaxed);
  out.messages_delayed = g_messages_delayed.load(std::memory_order_relaxed);
  out.max_queue_depth = g_max_queue_depth.load(std::memory_order_relaxed);
  return out;
}

}  // namespace locald::local
