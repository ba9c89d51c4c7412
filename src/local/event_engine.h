// Event-driven message-passing runtime with seeded fault injection.
//
// The one runtime that drives the full-information gather protocol
// (local/sync_engine.h). A flood runs in three passes:
//  1. Schedule: messages become payload-free events on a priority queue
//     ordered by (virtual time, sequence number), and a fault profile
//     (local/fault_profile.h) may delay, drop, retransmit, or fragment them.
//     Nodes progress in alpha-synchronizer style — a node enters round r + 1
//     once every round-r inbox slot has resolved (delivered or definitively
//     lost) — so the execution is asynchronous though the protocol is
//     written in rounds. The pass yields EventStats and which (round, arc)
//     messages arrived.
//  2. Gather: a round-r message is the sender's round-r state whenever it
//     is sent, so gather_knowledge runs the rounds over that delivery mask
//     alone. Timing changes EventStats and nothing else.
//  3. Decide: each node rebuilds its ball once and every algorithm of the
//     flood's one horizon decides on it.
//
// Determinism contract: the schedule is a pure function of
// (graph, rounds, profile, seed) — the schedule pass never sees a payload.
//  - Every fault decision (drop per attempt, delay per message, jitter per
//    fragment) is drawn from a counter-based stream
//    `Rng::stream(seed ^ plane, arc, index(round, attempt))`, keyed by the
//    directed arc and the (round, attempt) pair — never from engine state —
//    so decisions are call-order-independent.
//  - The queue orders ties by a sequence number assigned at push time, and
//    one run is a single-threaded simulation, so pops are totally ordered.
// Under the `none` profile every message arrives at its synchronous slot:
// the run is the paper's lockstep rounds, and its verdicts equal direct
// ball evaluation (tested).
//
// EventStats is part of the deterministic result — it reports the simulated
// schedule, not wall-clock behaviour — so scenarios may print it in
// byte-gated documents. The engine also feeds process-wide obs/ counters
// (events dispatched, drops, fragments, delays, max queue depth) for the
// volatile metric surfaces; those never flow back into results.
#pragma once

#include <cstdint>
#include <vector>

#include "local/fault_profile.h"
#include "local/sync_engine.h"

namespace locald::local {

// Deterministic statistics of one simulated schedule.
struct EventStats {
  std::uint64_t events_dispatched = 0;   // queue pops
  std::uint64_t messages_sent = 0;       // one per (directed arc, round)
  std::uint64_t messages_delivered = 0;  // resolved as arrived
  std::uint64_t messages_dropped = 0;    // every attempt lost
  std::uint64_t messages_delayed = 0;    // delivered after the sync slot
  std::uint64_t fragments_sent = 0;      // pieces of split messages
  std::uint64_t retransmissions = 0;     // attempts after the first
  std::uint64_t max_queue_depth = 0;     // high-water mark of pending events

  bool operator==(const EventStats&) const = default;
};

struct EventRunResult {
  std::vector<Verdict> verdicts;
  EventStats stats;
};

// One flood under `profile`, decided by every algorithm in `algs`. The
// algorithms must share one horizon. verdicts[a][v] is algorithm a's output
// at node v; under lossy profiles a node decides on whatever partial ball
// knowledge got through.
struct FloodResult {
  std::vector<std::vector<Verdict>> verdicts;
  EventStats stats;
};

FloodResult run_flood(const std::vector<const LocalAlgorithm*>& algs,
                      const LabeledGraph& g, const IdAssignment& ids,
                      const FaultProfileInstance& profile, std::uint64_t seed);

// The one-algorithm flood. Under `none` this equals run_via_message_passing
// and direct ball evaluation.
EventRunResult run_via_event_engine(const LocalAlgorithm& alg,
                                    const LabeledGraph& g,
                                    const IdAssignment& ids,
                                    const FaultProfileInstance& profile,
                                    std::uint64_t seed);

// Process-wide event-engine counters, accumulated across every run in this
// process. Scheduling-dependent in aggregate (how many runs happened), so
// they belong to the volatile metric surfaces only — /v1/metrics and
// GET /metrics — like the canonicalization counters they mirror.
struct EventEngineCounters {
  std::uint64_t events_dispatched = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_fragmented = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t max_queue_depth = 0;  // high-water mark across all runs
};

// Reading the counters also registers them with obs::registry() (idempotent),
// the same lazy-bridge pattern as graph::canonicalization_counters().
EventEngineCounters event_engine_counters();

}  // namespace locald::local
