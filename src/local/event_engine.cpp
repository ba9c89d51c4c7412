#include "local/event_engine.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <tuple>

#include "graph/csr.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
// notification for one inbox slot. Events carry timing only: under the
// alpha-synchronizer a round-r message is the sender's round-r state
// whenever it travels, so what it says is the gather pass's business. A
// slot resolves on its frag_total-th arrival.
struct Event {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;  // push order; breaks time ties deterministically
  graph::NodeId dst = 0;
  int port = 0;
  int round = 0;
  int frag_total = 0;
};

struct LaterFirst {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
  }
};

// One inbox slot: (round, node, port). Resolves exactly once, delivered
// (its bit in the delivery mask) or lost.
struct Slot {
  bool resolved = false;
  int arrivals = 0;
};

struct Schedule {
  EventStats stats;
  std::vector<bool> delivered;  // gather_knowledge's (round, arc) mask
};

// The schedule pass: simulates when every (round, arc) message resolves,
// and whether it arrives, without knowing what any message says.
class Engine {
 public:
  Engine(const graph::CsrGraph& g, int rounds, const FaultKnobs& knobs,
         std::uint64_t seed)
      : g_(g.span()), rounds_(rounds), knobs_(knobs), seed_(seed) {}

  Schedule run();

 private:
  // Slot (round, v, port) sits at v's CSR arc offset within its round: the
  // delivery-mask layout gather_knowledge reads.
  std::size_t slot_index(graph::NodeId v, int round, int port) const {
    return static_cast<std::size_t>(round) * g_.offsets[g_.n] +
           g_.offsets[v] + static_cast<std::size_t>(port);
  }

  std::uint64_t& round_time(graph::NodeId v, int round) {
    return round_time_[static_cast<std::size_t>(round) * round_of_.size() +
                       static_cast<std::size_t>(v)];
  }

  // Port of node `u` in `v`'s inbox: the rank of `u` in v's (ascending)
  // neighbour list.
  int port_of(graph::NodeId v, graph::NodeId u) const {
    const auto nbrs = g_.neighbors(v);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
    LOCALD_ASSERT(it != nbrs.end() && *it == u,
                  "arc endpoints must be adjacent");
    return static_cast<int>(it - nbrs.begin());
  }

  // Queues one fragment arrival, or (frag_total == 0) a loss notification.
  void push(std::uint64_t time, graph::NodeId dst, int port, int round,
            int frag_total) {
    queue_.push({time, next_seq_++, dst, port, round, frag_total});
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth,
                 static_cast<std::uint64_t>(queue_.size()));
  }

  void send_round(graph::NodeId v, int round, std::uint64_t now);
  void advance(graph::NodeId v, std::uint64_t now);

  graph::CsrSpan g_;
  int rounds_;
  FaultKnobs knobs_;
  std::uint64_t seed_;

  std::vector<int> round_of_;
  // Both indexed by slot_index.
  std::vector<Slot> slots_;
  std::vector<bool> delivered_;
  // Max resolution time seen per (round, node): a node that buffered
  // early-arriving future-round messages must not advance its clock into
  // the past when it finally reaches that round.
  std::vector<std::uint64_t> round_time_;
  std::priority_queue<Event, std::vector<Event>, LaterFirst> queue_;
  std::uint64_t next_seq_ = 0;
  EventStats stats_;
};

void Engine::send_round(graph::NodeId v, int round, std::uint64_t now) {
  const std::uint64_t n = static_cast<std::uint64_t>(g_.n);
  for (graph::NodeId w : g_.neighbors(v)) {
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
      const auto attempts = static_cast<std::uint64_t>(knobs_.attempts);
      push(now + attempts, w, port, round, /*frag_total=*/0);
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
      completion = std::max(completion, base + jitter);
      push(base + jitter, w, port, round, frags);
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
  const std::size_t deg = g_.neighbors(v).size();
  std::uint64_t t = now;
  while (round_of_[vi] < rounds_) {
    const int round = round_of_[vi];
    const std::size_t first = slot_index(v, round, 0);
    for (std::size_t i = first; i < first + deg; ++i) {
      if (!slots_[i].resolved) {
        return;
      }
    }
    t = std::max(t, round_time(v, round));
    ++round_of_[vi];
    if (round_of_[vi] < rounds_) {
      send_round(v, round_of_[vi], t);
    }
  }
}

Schedule Engine::run() {
  const graph::NodeId n = g_.n;
  round_of_.assign(static_cast<std::size_t>(n), 0);
  slots_.assign(slot_index(0, rounds_, 0), Slot{});
  delivered_.assign(slots_.size(), false);
  round_time_.assign(static_cast<std::size_t>(rounds_) * round_of_.size(), 0);

  // Round-0 sends happen at virtual time 0 in node-index order (the
  // deterministic analogue of "everyone starts at once").
  for (graph::NodeId v = 0; v < n && rounds_ > 0; ++v) {
    send_round(v, 0, 0);
  }
  // Isolated nodes have no inbox slots to wait for and run to completion.
  for (graph::NodeId v = 0; v < n; ++v) {
    advance(v, 0);
  }

  while (!queue_.empty()) {
    const Event e = queue_.top();
    queue_.pop();
    ++stats_.events_dispatched;
    const std::size_t slot = slot_index(e.dst, e.round, e.port);
    Slot& s = slots_[slot];
    LOCALD_ASSERT(!s.resolved, "inbox slot resolved twice");
    // A slot resolves on its last fragment, or on a loss notification
    // (frag_total == 0).
    if (e.frag_total != 0 && ++s.arrivals < e.frag_total) {
      continue;
    }
    s.resolved = true;
    delivered_[slot] = e.frag_total != 0;
    std::uint64_t& rt = round_time(e.dst, e.round);
    rt = std::max(rt, e.time);
    if (e.round == round_of_[static_cast<std::size_t>(e.dst)]) {
      advance(e.dst, e.time);
    }
  }

  for (graph::NodeId v = 0; v < n; ++v) {
    LOCALD_ASSERT(round_of_[static_cast<std::size_t>(v)] == rounds_,
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
  return {stats_, std::move(delivered_)};
}

}  // namespace

FloodResult run_flood(const std::vector<const LocalAlgorithm*>& algs,
                      const LabeledGraph& g, const IdAssignment& ids,
                      const FaultProfileInstance& profile, std::uint64_t seed) {
  LOCALD_CHECK(!algs.empty(), "a flood needs at least one algorithm");
  const int horizon = algs.front()->horizon();
  for (const LocalAlgorithm* alg : algs) {
    LOCALD_CHECK(alg->horizon() == horizon,
                 "one flood serves algorithms of one horizon");
  }
  const Schedule schedule = [&] {
    obs::Span span("flood-schedule");
    Engine engine(g.graph(), gather_rounds(horizon), profile.knobs(), seed);
    return engine.run();
  }();
  const std::vector<std::string> knowledge = [&] {
    obs::Span span("flood-gather");
    return gather_knowledge(g, ids, horizon, schedule.delivered);
  }();
  obs::Span span("flood-decide");
  FloodResult result{{}, schedule.stats};
  result.verdicts.assign(algs.size(), std::vector<Verdict>(knowledge.size()));
  for (std::size_t v = 0; v < knowledge.size(); ++v) {
    const auto [self, known] = decode_knowledge(knowledge[v]);
    const Ball ball = ball_from_knowledge(self, known, horizon);
    const BallView view = ball.view();
    for (std::size_t a = 0; a < algs.size(); ++a) {
      result.verdicts[a][v] = algs[a]->evaluate(
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
