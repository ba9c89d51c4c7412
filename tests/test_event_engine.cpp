// The event-driven message-passing runtime (local/event_engine.h).
//
// The engine's two promises, tested head-on:
//  1. Equivalence: under the `none` control profile — and under any profile
//     that perturbs timing without losing information (delay, fragmentation)
//     — the event-driven execution reproduces direct ball evaluation's
//     verdicts exactly, on every topology tried. One flood decided by
//     several algorithms gives each exactly its single-algorithm run.
//  2. Determinism: verdicts AND schedule statistics are pure functions of
//     (graph, algorithm, profile, seed); repeat runs agree field for field,
//     different seeds reshuffle faulty schedules without touching the
//     clean ones, and recorded floods pin both across versions.
//  3. Timing never changes knowledge: profiles that lose the same messages
//     give the same verdicts however they delay or fragment them.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "local/ball.h"
#include "local/event_engine.h"
#include "local/fault_profile.h"
#include "local/identifiers.h"
#include "local/labeled_graph.h"
#include "local/simulator.h"

namespace locald::local {
namespace {

std::unique_ptr<LocalAlgorithm> even_degree() {
  return make_oblivious("even-degree", 1, [](const BallView& ball) {
    return ball.g.degree(ball.center) % 2 == 0 ? Verdict::yes : Verdict::no;
  });
}

std::unique_ptr<LocalAlgorithm> triangle_free() {
  return make_oblivious("triangle-free", 1, [](const BallView& ball) {
    const auto& nbrs = ball.g.neighbors(ball.center);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (ball.g.has_edge(nbrs[i], nbrs[j])) {
          return Verdict::no;
        }
      }
    }
    return Verdict::yes;
  });
}

std::vector<graph::CsrGraph> topologies() {
  std::vector<graph::CsrGraph> out;
  out.push_back(graph::make_cycle(9));
  out.push_back(graph::make_path(7));
  out.push_back(graph::make_complete_bipartite(1, 5));
  out.push_back(graph::make_complete(5));
  out.push_back(graph::make_grid(3, 4));
  out.push_back(graph::make_balanced_tree(2, 3));
  return out;
}

TEST(EventEngine, NoneProfileReproducesDirectEvaluationEverywhere) {
  const auto control = resolve_faults_text("none");
  const auto alg = even_degree();
  const auto tri = triangle_free();
  for (const graph::CsrGraph& g : topologies()) {
    const LabeledGraph instance(g);
    const IdAssignment ids = make_consecutive(g.node_count());
    for (const LocalAlgorithm* a : {alg.get(), tri.get()}) {
      const std::vector<Verdict> direct = run_oblivious(*a, instance).outputs;
      const EventRunResult event =
          run_via_event_engine(*a, instance, ids, control, 42);
      EXPECT_EQ(event.verdicts, direct)
          << a->name() << " on n=" << g.node_count();
      EXPECT_EQ(event.stats.messages_dropped, 0u);
      EXPECT_EQ(event.stats.messages_delayed, 0u);
      EXPECT_EQ(event.stats.fragments_sent, 0u);
      EXPECT_EQ(event.stats.retransmissions, 0u);
    }
  }
}

// Delay and fragmentation perturb the schedule, never the information: the
// α-synchronizer waits out every slot, so verdicts still match direct
// evaluation even though messages arrive late and in pieces.
TEST(EventEngine, LosslessProfilesPreserveVerdicts) {
  const auto alg = even_degree();
  for (const char* selector :
       {"delay:max=7", "fragment:pieces=5", "chaos:per-mille=0"}) {
    const auto profile = resolve_faults_text(selector);
    for (const graph::CsrGraph& g : topologies()) {
      const LabeledGraph instance(g);
      const IdAssignment ids = make_consecutive(g.node_count());
      const std::vector<Verdict> direct =
          run_oblivious(*alg, instance).outputs;
      const EventRunResult event =
          run_via_event_engine(*alg, instance, ids, profile, 7);
      EXPECT_EQ(event.verdicts, direct)
          << selector << " on n=" << g.node_count();
      EXPECT_EQ(event.stats.messages_dropped, 0u) << selector;
    }
  }
}

// The gathered knowledge depends on the horizon, never on the algorithm,
// and the schedule never on the payload: one flood decided by a panel gives
// each algorithm exactly its single-algorithm verdicts, with an identical
// schedule — clean and lossy alike.
TEST(EventEngine, OneFloodDecidesEveryAlgorithmAsItsOwnRunWould) {
  const auto even = even_degree();
  const auto tri = triangle_free();
  const auto big_id = make_id_aware("big-id", 1, [](const BallView& b) {
    for (graph::NodeId v = 0; v < b.node_count(); ++v) {
      if (b.id_of(v) > 8) return Verdict::no;
    }
    return Verdict::yes;
  });
  const std::vector<const LocalAlgorithm*> algs{even.get(), tri.get(),
                                                big_id.get()};
  for (const char* selector :
       {"none", "chaos:delay=3,per-mille=400,attempts=2,pieces=3"}) {
    const auto profile = resolve_faults_text(selector);
    for (const graph::CsrGraph& g : topologies()) {
      const LabeledGraph instance(g);
      const IdAssignment ids = make_consecutive(g.node_count());
      const FloodResult flood = run_flood(algs, instance, ids, profile, 9);
      ASSERT_EQ(flood.verdicts.size(), algs.size());
      for (std::size_t a = 0; a < algs.size(); ++a) {
        const EventRunResult single =
            run_via_event_engine(*algs[a], instance, ids, profile, 9);
        EXPECT_EQ(flood.verdicts[a], single.verdicts)
            << selector << ", " << algs[a]->name() << " on n="
            << g.node_count();
        EXPECT_TRUE(flood.stats == single.stats) << selector;
      }
    }
  }
  // One flood serves one horizon.
  const auto wide = make_oblivious("wide", 2, [](const BallView&) {
    return Verdict::yes;
  });
  const LabeledGraph cycle(graph::make_cycle(5));
  EXPECT_THROW(run_flood({even.get(), wide.get()}, cycle,
                         make_consecutive(5), resolve_faults_text("none"), 1),
               Error);
}

TEST(EventEngine, RepeatRunsAgreeVerbatimIncludingStats) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_grid(4, 4));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const auto profile =
      resolve_faults_text("chaos:delay=3,per-mille=400,attempts=2,pieces=3");
  const EventRunResult first =
      run_via_event_engine(*alg, instance, ids, profile, 13);
  for (int i = 0; i < 3; ++i) {
    const EventRunResult again =
        run_via_event_engine(*alg, instance, ids, profile, 13);
    EXPECT_EQ(again.verdicts, first.verdicts);
    EXPECT_TRUE(again.stats == first.stats);
  }
  // A different seed draws a different schedule (with these knobs the drop
  // pattern virtually surely differs somewhere across 96 arcs x 2 rounds).
  const EventRunResult reseeded =
      run_via_event_engine(*alg, instance, ids, profile, 14);
  EXPECT_FALSE(reseeded.stats == first.stats);
}

TEST(EventEngine, HeavyLossPerturbsVerdictsButNeverWedges) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_cycle(10));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const std::vector<Verdict> direct = run_oblivious(*alg, instance).outputs;
  const auto lossy = resolve_faults_text("drop:per-mille=900,attempts=1");
  const EventRunResult faulty =
      run_via_event_engine(*alg, instance, ids, lossy, 42);
  // Every node still terminates and outputs...
  ASSERT_EQ(faulty.verdicts.size(), direct.size());
  // ...but with 90% loss some node must have missed a neighbour and seen an
  // undersized ball.
  EXPECT_NE(faulty.verdicts, direct);
  EXPECT_GT(faulty.stats.messages_dropped, 0u);
}

TEST(EventEngine, StatsAreConsistentOnACleanCycle) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_cycle(6));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const auto control = resolve_faults_text("none");
  const EventRunResult r =
      run_via_event_engine(*alg, instance, ids, control, 42);
  // horizon 1 => 2 rounds; each of the 6 degree-2 nodes sends 2 messages
  // per round, every one delivered as a single un-fragmented event.
  EXPECT_EQ(r.stats.messages_sent, 24u);
  EXPECT_EQ(r.stats.messages_delivered, 24u);
  EXPECT_EQ(r.stats.events_dispatched, 24u);
  EXPECT_GT(r.stats.max_queue_depth, 0u);
  EXPECT_LE(r.stats.max_queue_depth, 24u);
}

TEST(EventEngine, FragmentationAccountsEveryPiece) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_cycle(6));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const auto frag = resolve_faults_text("fragment:pieces=4");
  const EventRunResult r =
      run_via_event_engine(*alg, instance, ids, frag, 42);
  EXPECT_EQ(r.stats.messages_sent, 24u);
  EXPECT_EQ(r.stats.messages_delivered, 24u);
  EXPECT_EQ(r.stats.fragments_sent, 96u);   // 4 pieces per delivery
  EXPECT_EQ(r.stats.events_dispatched, 96u);
}

// A panel of horizon-2 algorithms whose verdicts move with the exact
// gathered ball: its size, edges, labels and identifiers.
std::vector<std::unique_ptr<LocalAlgorithm>> golden_panel() {
  std::vector<std::unique_ptr<LocalAlgorithm>> panel;
  panel.push_back(make_oblivious("even-degree", 2, [](const BallView& b) {
    return b.g.degree(b.center) % 2 == 0 ? Verdict::yes : Verdict::no;
  }));
  panel.push_back(make_oblivious("odd-ball", 2, [](const BallView& b) {
    return b.node_count() % 2 == 1 ? Verdict::yes : Verdict::no;
  }));
  panel.push_back(make_oblivious("even-edges", 2, [](const BallView& b) {
    return b.g.edge_count() % 2 == 0 ? Verdict::yes : Verdict::no;
  }));
  panel.push_back(make_oblivious("sees-label-2", 2, [](const BallView& b) {
    for (graph::NodeId v = 0; v < b.node_count(); ++v) {
      if (b.label(v) == Label{2}) return Verdict::yes;
    }
    return Verdict::no;
  }));
  panel.push_back(make_id_aware("even-id-sum", 2, [](const BallView& b) {
    Id sum = 0;
    for (graph::NodeId v = 0; v < b.node_count(); ++v) sum += b.id_of(v);
    return sum % 2 == 0 ? Verdict::yes : Verdict::no;
  }));
  return panel;
}

std::string verdict_string(const std::vector<Verdict>& verdicts) {
  std::string out;
  for (Verdict v : verdicts) out += v == Verdict::yes ? 'y' : 'n';
  return out;
}

// Recorded from the engine that carried payloads on its events, before the
// schedule and gather passes were split: any change to the schedule (event
// order, fault draws, stats) or to what a node gathers shows up here. Per
// flood: graph, fault profile and seed; the EventStats fields in declaration
// order; then one verdict string per golden_panel() algorithm.
constexpr const char* kGoldenFloods = R"(
torus-8x8 none 1
768 768 768 0 0 0 0 256
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
ynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynyn
torus-8x8 none 7
768 768 768 0 0 0 0 256
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
ynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynyn
torus-8x8 chaos 1
1536 768 768 0 689 1536 127 512
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
ynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynyn
torus-8x8 chaos 7
1535 768 767 1 698 1534 115 511
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
ynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynyn
torus-8x8 fragment:pieces=3 1
2304 768 768 0 0 2304 0 768
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
ynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynyn
torus-8x8 fragment:pieces=3 7
2304 768 768 0 0 2304 0 768
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
ynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynyn
torus-8x8 chaos:pieces=16,delay=5 1
12288 768 768 0 768 12288 127 4096
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
ynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynyn
torus-8x8 chaos:pieces=16,delay=5 7
12273 768 767 1 767 12272 115 4081
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
ynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynynyn
torus-8x8 drop:per-mille=900,attempts=1 1
768 768 62 706 0 0 0 256
ynnynynnyynyyynnnyyynyyyyyyynyynnnyynynnynynyyynyynnnyynnnynynnn
ynnynynnnyyyyynnnyyynyyyyyyynyynnnynnyynynynyyynyynnnyynnnynynny
ynnynynnnyyyyynnnyyynyyyyyyynyynnnynnyynynynyyynyynnnyynnnynynny
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
yyynnnnnnyynynnnynynyyynynynnnyyynnynnnnnyynynynnnynnynynyynyyyy
torus-8x8 drop:per-mille=900,attempts=1 7
768 768 76 692 0 0 0 256
nnynyyynnnnnnnnyyyynyyyynyyyyyynynynnyynyynynnnnnyynnynyynynyyny
nnynynynnynnnnyyyyynnyyynyyyyyynynyynynnnynynnnynyynnynyynyyyyny
nnynynynnynnnnyyyyynnyyynyyyyyynynyynynnnynynnnynyynnynyynyyyyny
nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn
nnyyynynnnnnynynynynyyyyynnynnynyynynnnnnnnynnyynnynynynynynynyy
layered-tree-4 none 1
336 336 336 0 0 0 0 112
yyyynnyynnnnnnyynnnnnnnnnnnnnny
yyynyynnyyyyyynnyyyyyyyyyyyyyyn
ynnyyyynnyyyynnyynnnnnnnnnnnnyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnyyyynnynyyyyyynynnynyynynny
layered-tree-4 none 7
336 336 336 0 0 0 0 112
yyyynnyynnnnnnyynnnnnnnnnnnnnny
yyynyynnyyyyyynnyyyyyyyyyyyyyyn
ynnyyyynnyyyynnyynnnnnnnnnnnnyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnyyyynnynyyyyyynynnynyynynny
layered-tree-4 chaos 1
672 336 336 0 303 672 53 224
yyyynnyynnnnnnyynnnnnnnnnnnnnny
yyynyynnyyyyyynnyyyyyyyyyyyyyyn
ynnyyyynnyyyynnyynnnnnnnnnnnnyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnyyyynnynyyyyyynynnynyynynny
layered-tree-4 chaos 7
672 336 336 0 301 672 44 224
yyyynnyynnnnnnyynnnnnnnnnnnnnny
yyynyynnyyyyyynnyyyyyyyyyyyyyyn
ynnyyyynnyyyynnyynnnnnnnnnnnnyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnyyyynnynyyyyyynynnynyynynny
layered-tree-4 fragment:pieces=3 1
1008 336 336 0 0 1008 0 336
yyyynnyynnnnnnyynnnnnnnnnnnnnny
yyynyynnyyyyyynnyyyyyyyyyyyyyyn
ynnyyyynnyyyynnyynnnnnnnnnnnnyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnyyyynnynyyyyyynynnynyynynny
layered-tree-4 fragment:pieces=3 7
1008 336 336 0 0 1008 0 336
yyyynnyynnnnnnyynnnnnnnnnnnnnny
yyynyynnyyyyyynnyyyyyyyyyyyyyyn
ynnyyyynnyyyynnyynnnnnnnnnnnnyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnyyyynnynyyyyyynynnynyynynny
layered-tree-4 chaos:pieces=16,delay=5 1
5376 336 336 0 336 5376 53 1792
yyyynnyynnnnnnyynnnnnnnnnnnnnny
yyynyynnyyyyyynnyyyyyyyyyyyyyyn
ynnyyyynnyyyynnyynnnnnnnnnnnnyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnyyyynnynyyyyyynynnynyynynny
layered-tree-4 chaos:pieces=16,delay=5 7
5376 336 336 0 336 5376 44 1792
yyyynnyynnnnnnyynnnnnnnnnnnnnny
yyynyynnyyyyyynnyyyyyyyyyyyyyyn
ynnyyyynnyyyynnyynnnnnnnnnnnnyy
yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
nnnnyyyynnynyyyyyynynnynyynynny
layered-tree-4 drop:per-mille=900,attempts=1 1
336 336 28 308 0 0 0 112
nnnnynnyyyyyynnnnyyynynynyynyny
ynnnyyyyyyyynnnynyyynynynyyyyny
ynnnyyyyyyyynnnynyyynynynyyyyny
ynynnyynyynyyyyyyynnynnynnyynyn
yyyynyynyyyyynyynnynnnnnnnyyyny
layered-tree-4 drop:per-mille=900,attempts=1 7
336 336 40 296 0 0 0 112
ynyyynynnnynnnynnnnyynnynynnyyy
ynyyynynynyynnynyynyynyynyynyyy
ynyyynynnnyynnynyynyynyynyynyyy
nyyynyynynnynnynnynyynnyynynnyy
ynyyynyyynyynyyyyynnynnnnnnyynn
)";

struct GoldenFlood {
  std::string graph;
  std::string faults;
  std::uint64_t seed = 0;
  EventStats stats;
  std::vector<std::string> verdicts;
};

std::vector<GoldenFlood> golden_floods(std::size_t algorithms) {
  std::istringstream in(kGoldenFloods);
  std::vector<GoldenFlood> out;
  GoldenFlood f;
  while (in >> f.graph >> f.faults >> f.seed) {
    EventStats& s = f.stats;
    in >> s.events_dispatched >> s.messages_sent >> s.messages_delivered;
    in >> s.messages_dropped >> s.messages_delayed >> s.fragments_sent;
    in >> s.retransmissions >> s.max_queue_depth;
    f.verdicts.assign(algorithms, "");
    for (std::string& v : f.verdicts) in >> v;
    out.push_back(f);
  }
  return out;
}

TEST(EventEngine, FloodsMatchTheirRecordedSchedulesAndVerdicts) {
  const auto panel = golden_panel();
  std::vector<const LocalAlgorithm*> algs;
  for (const auto& alg : panel) algs.push_back(alg.get());
  const graph::CsrGraph tree = graph::make_layered_tree(4);
  std::vector<Label> labels;
  for (graph::NodeId v = 0; v < tree.node_count(); ++v) {
    labels.push_back(Label{v % 3});
  }
  const LabeledGraph torus(graph::make_torus(8, 8));
  const LabeledGraph layered(tree, labels);
  const std::vector<GoldenFlood> golden = golden_floods(algs.size());
  ASSERT_EQ(golden.size(), 20u);
  for (const GoldenFlood& want : golden) {
    const LabeledGraph& instance = want.graph == "torus-8x8" ? torus : layered;
    const IdAssignment ids = make_consecutive(instance.node_count());
    const auto faults = resolve_faults_text(want.faults);
    const FloodResult flood = run_flood(algs, instance, ids, faults, want.seed);
    const std::string where = want.graph + " under " + want.faults;
    EXPECT_TRUE(flood.stats == want.stats) << where << ", seed " << want.seed;
    for (std::size_t a = 0; a < algs.size(); ++a) {
      EXPECT_EQ(verdict_string(flood.verdicts[a]), want.verdicts[a])
          << where << ", seed " << want.seed << ", " << algs[a]->name();
    }
  }
}

// What a node gathers depends only on which messages arrived. `drop` and
// this `chaos` draw the same loss pattern (same per-mille and attempts, the
// same drop streams), but chaos also delays and fragments every message:
// the schedules differ, the verdicts may not.
TEST(EventEngine, TimingNeverChangesKnowledge) {
  const auto panel = golden_panel();
  std::vector<const LocalAlgorithm*> algs;
  for (const auto& alg : panel) algs.push_back(alg.get());
  const auto drop = resolve_faults_text("drop:per-mille=200,attempts=3");
  const auto chaos = resolve_faults_text(
      "chaos:per-mille=200,attempts=3,delay=5,pieces=4");
  for (const graph::CsrGraph& g :
       {graph::make_torus(8, 8), graph::make_layered_tree(4)}) {
    const LabeledGraph instance(g);
    const IdAssignment ids = make_consecutive(g.node_count());
    for (std::uint64_t seed : {1, 7, 13}) {
      const FloodResult lossy = run_flood(algs, instance, ids, drop, seed);
      const FloodResult late = run_flood(algs, instance, ids, chaos, seed);
      EXPECT_EQ(late.verdicts, lossy.verdicts) << "seed " << seed;
      EXPECT_EQ(late.stats.messages_dropped, lossy.stats.messages_dropped);
      EXPECT_GT(lossy.stats.messages_dropped, 0u);
      EXPECT_NE(late.stats.messages_delayed, lossy.stats.messages_delayed);
      EXPECT_NE(late.stats.fragments_sent, lossy.stats.fragments_sent);
    }
  }
}

TEST(EventEngine, ProcessCountersAccumulateAcrossRuns) {
  const auto alg = even_degree();
  const LabeledGraph instance(graph::make_cycle(8));
  const IdAssignment ids = make_consecutive(instance.node_count());
  const EventEngineCounters before = event_engine_counters();
  const auto lossy = resolve_faults_text("drop:per-mille=900,attempts=1");
  const EventRunResult r =
      run_via_event_engine(*alg, instance, ids, lossy, 5);
  const EventEngineCounters after = event_engine_counters();
  EXPECT_EQ(after.events_dispatched - before.events_dispatched,
            r.stats.events_dispatched);
  EXPECT_EQ(after.messages_dropped - before.messages_dropped,
            r.stats.messages_dropped);
  EXPECT_GE(after.max_queue_depth, r.stats.max_queue_depth);
}

}  // namespace
}  // namespace locald::local
