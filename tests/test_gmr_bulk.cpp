// The G(M, r) verifier's whole-graph path against its semantic definition.
// evaluate_all decides every node from radius-1 node facts plus a check of
// the centre's grid patch on the host graph; evaluate() reads the centre's
// extracted, stripped radius-2 ball. The two must agree on every node of
// valid instances (fig2, ablation, the pyramidal fig3 variant), of the
// neighbourhood generator's prefix hosts, and of mutated instances, at 1
// and 4 threads. The separation algorithm R, which takes the whole-graph
// path whenever its candidate offers one, must agree with its ball loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "halting/analysis.h"
#include "halting/gmr.h"
#include "halting/verifier.h"
#include "local/ball.h"
#include "local/fault_profile.h"
#include "support/rng.h"
#include "tm/zoo.h"

namespace locald::halting {
namespace {

using local::LabeledGraph;
using local::LocalAlgorithm;
using local::Verdict;

tm::FragmentPolicy policy_with_cap(std::size_t cap) {
  tm::FragmentPolicy policy;
  policy.max_fragments = cap;
  policy.seed = 7;
  return policy;
}

std::vector<Verdict> ball_verdicts(const LocalAlgorithm& alg,
                                   const LabeledGraph& g) {
  local::BallScratch scratch;
  std::vector<Verdict> out;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    out.push_back(alg.evaluate(scratch.extract(g, nullptr, v, alg.horizon())));
  }
  return out;
}

// Asserts bulk == per-ball on every node and returns the verdicts.
std::vector<Verdict> expect_bulk_matches_balls(const LocalAlgorithm& alg,
                                               const LabeledGraph& g,
                                               const std::string& what) {
  const std::vector<Verdict> want = ball_verdicts(alg, g);
  for (int threads : {1, 4}) {
    exec::ThreadPool pool(threads);
    const auto got = alg.evaluate_all(g, &pool);
    EXPECT_TRUE(got.has_value()) << what;
    if (!got.has_value()) {
      break;
    }
    EXPECT_EQ(got->size(), want.size()) << what;
    for (std::size_t v = 0; v < want.size() && v < got->size(); ++v) {
      EXPECT_STREQ(local::to_string((*got)[v]), local::to_string(want[v]))
          << what << ", node " << v << ", " << threads << " threads";
    }
  }
  return want;
}

bool all_yes(const std::vector<Verdict>& verdicts) {
  return std::all_of(verdicts.begin(), verdicts.end(),
                     [](Verdict v) { return v == Verdict::yes; });
}

// Fragment caps stay small: the per-ball reference costs the number of
// nodes times the pivot's degree, and the suite also runs under TSan.

TEST(GmrBulk, Fig2InstancesAgreeOnEveryNode) {
  const tm::FragmentPolicy policy = policy_with_cap(120);
  const auto verifier = make_gmr_verifier(3, policy, false, 4096);
  for (const tm::ZooEntry& e : tm::small_zoo()) {
    if (!e.halts) {
      continue;
    }
    const GmrInstance inst =
        build_gmr({e.machine, 1, 3, policy, false, 4096});
    EXPECT_TRUE(all_yes(
        expect_bulk_matches_balls(*verifier, inst.graph, e.machine.name())))
        << e.machine.name();
  }
}

TEST(GmrBulk, AblationInstancesAgreeOnEveryNode) {
  for (std::size_t cap : {50ul, 150ul}) {
    const tm::FragmentPolicy policy = policy_with_cap(cap);
    const auto verifier = make_gmr_verifier(3, policy, false, 4096);
    const GmrInstance inst =
        build_gmr({tm::halt_after(2, 0), 1, 3, policy, false, 4096});
    EXPECT_TRUE(all_yes(expect_bulk_matches_balls(*verifier, inst.graph,
                                                  "cap " + std::to_string(cap))));
  }
}

TEST(GmrBulk, PyramidalInstancesAgreeOnEveryNode) {
  const tm::FragmentPolicy policy = policy_with_cap(120);
  for (int k : {1, 2}) {
    const tm::TuringMachine m = tm::halt_after(k, 0);
    const GmrInstance inst = build_gmr({m, 1, 4, policy, true, 4096});
    // Both modes: the pyramidal verifier, and the plain one whose mode gate
    // rejects every ball that holds a pyramid node.
    for (bool pyramidal : {true, false}) {
      const auto verifier = make_gmr_verifier(4, policy, pyramidal, 4096);
      expect_bulk_matches_balls(
          *verifier, inst.graph,
          m.name() + (pyramidal ? ", pyramidal" : ", plain verifier"));
    }
  }
}

TEST(GmrBulk, PrefixHostsOfDivergingMachinesAgreeOnEveryNode) {
  const tm::FragmentPolicy policy = policy_with_cap(100);
  const auto verifier = make_gmr_verifier(3, policy, false, 4096);
  int diverging = 0;
  for (const tm::ZooEntry& e : tm::small_zoo()) {
    if (e.halts) {
      continue;
    }
    ++diverging;
    const GeneratedBalls gen = neighborhood_generator(
        {e.machine, 1, 3, policy, false, 4096}, verifier->horizon());
    ASSERT_FALSE(gen.exact) << e.machine.name();
    expect_bulk_matches_balls(*verifier, gen.host, e.machine.name());
  }
  EXPECT_EQ(diverging, 3);
}

// Adds an edge between two nodes at distance exactly 2, the edges a
// radius-2 ball holds between two of its outer members.
LabeledGraph add_distance_two_edge(const LabeledGraph& g, Rng& rng) {
  for (;;) {
    const auto u = static_cast<graph::NodeId>(rng.below(g.node_count()));
    const auto row = g.graph().neighbors(u);
    if (row.empty()) {
      continue;
    }
    const graph::NodeId x = row[rng.below(row.size())];
    const auto next = g.graph().neighbors(x);
    const graph::NodeId w = next[rng.below(next.size())];
    if (w == u || g.graph().has_edge(u, w)) {
      continue;
    }
    graph::EdgeList edges = g.graph().edges();
    edges.emplace_back(u, w);
    return LabeledGraph(graph::CsrGraph::from_edges(g.node_count(), edges),
                        g.labels());
  }
}

TEST(GmrBulk, MutatedInstancesAgreeOnEveryNode) {
  const tm::FragmentPolicy policy = policy_with_cap(60);
  const auto verifier = make_gmr_verifier(3, policy, false, 4096);
  const GmrInstance inst =
      build_gmr({tm::halt_after(2, 0), 1, 3, policy, false, 4096});
  Rng rng(27);
  int rejected = 0;
  int fixtures = 0;
  const auto check = [&](const LabeledGraph& g, const std::string& what) {
    ++fixtures;
    rejected += all_yes(expect_bulk_matches_balls(*verifier, g, what)) ? 0 : 1;
  };
  for (int i = 0; i < 8; ++i) {
    const std::string seed = " #" + std::to_string(i);
    check(local::mutate_label(inst.graph, rng), "mutate_label" + seed);
    check(local::mutate_swap_labels(inst.graph, rng),
          "mutate_swap_labels" + seed);
    check(local::mutate_add_edge(inst.graph, rng), "mutate_add_edge" + seed);
    check(add_distance_two_edge(inst.graph, rng), "distance-2 edge" + seed);
  }
  // Mutations that leave the instance label-isomorphic (swapping equal
  // labels) may be accepted; most are not.
  EXPECT_GT(rejected, fixtures / 2);
}

// A cell code that names none of M's cells is garbage: both paths must
// reject it, never hand it to the machine's cell accessors, which throw.
TEST(GmrBulk, ForeignCellCodesAreRejected) {
  const tm::FragmentPolicy policy = policy_with_cap(60);
  const auto verifier = make_gmr_verifier(3, policy, false, 4096);
  const tm::TuringMachine m = tm::halt_after(2, 0);
  const GmrInstance inst = build_gmr({m, 1, 3, policy, false, 4096});
  const graph::NodeId last = inst.graph.node_count() - 1;
  const auto side = static_cast<graph::NodeId>(inst.table_side);
  for (const auto& [v, code] :
       {std::pair<graph::NodeId, std::int64_t>{inst.pivot, -1},
        {side + 1, m.cell_code_count()},
        {side * side, m.cell_code_count() + 5},
        {last, -1}}) {
    LabeledGraph g = inst.graph;
    std::vector<std::int64_t> fields = g.label(v).fields();
    fields[5] = code;  // the cell-code field of a cell label
    g.set_label(v, local::Label(std::move(fields)));
    const std::string what =
        "node " + std::to_string(v) + " code " + std::to_string(code);
    EXPECT_FALSE(all_yes(expect_bulk_matches_balls(*verifier, g, what)))
        << what;
  }
}

TEST(GmrBulk, SeparationAgreesWithItsBallLoop) {
  const tm::FragmentPolicy policy = policy_with_cap(60);
  std::vector<std::shared_ptr<const LocalAlgorithm>> candidates{
      candidate_structure_only(3, policy, false, 4096),
      candidate_bounded_simulation(3, policy, false, 4096, 2)};
  std::vector<tm::TuringMachine> machines{
      tm::halt_after(1, 0), tm::halt_after(1, 1), tm::halt_after(4, 1)};
  for (const tm::ZooEntry& e : tm::small_zoo()) {
    if (!e.halts) {
      machines.push_back(e.machine);
    }
  }
  for (const auto& candidate : candidates) {
    // The same candidate without a whole-graph path: R's ball loop.
    const auto per_ball = local::make_oblivious(
        candidate->name(), candidate->horizon(),
        [candidate](const local::BallView& ball) {
          return candidate->evaluate(ball);
        });
    for (const tm::TuringMachine& m : machines) {
      const GmrParams params{m, 1, 3, policy, false, 4096};
      const std::string what = candidate->name() + " on " + m.name();
      const GeneratedBalls gen = neighborhood_generator(params, 2);
      const std::vector<Verdict> verdicts =
          expect_bulk_matches_balls(*candidate, gen.host, what);
      const bool accepts = std::all_of(
          gen.centers.begin(), gen.centers.end(), [&](graph::NodeId v) {
            return verdicts[static_cast<std::size_t>(v)] == Verdict::yes;
          });
      EXPECT_EQ(separation_accepts(*candidate, params), accepts) << what;
      EXPECT_EQ(separation_accepts(*per_ball, params), accepts) << what;
    }
  }
}

}  // namespace
}  // namespace locald::halting
