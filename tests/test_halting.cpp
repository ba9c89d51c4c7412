// Tests for the Section-3 construction: pyramids, G(M, r) assembly, the
// structure verifier (completeness + mutation soundness), the LD decider,
// the neighbourhood generator's totality, the separation experiment, the
// Corollary-1 randomized decider, and the promise problem.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "graph/pyramid.h"
#include "halting/analysis.h"
#include "halting/gmr.h"
#include "halting/promise_halting.h"
#include "halting/verifier.h"
#include "local/ball.h"
#include "local/property.h"
#include "local/simulator.h"
#include "tm/run.h"
#include "tm/zoo.h"

namespace locald::halting {
namespace {

using graph::PyramidIndexer;
using graph::attach_pyramid;
using graph::build_pyramid;
using graph::is_pyramid;
using local::LabeledGraph;
using local::Verdict;

tm::FragmentPolicy small_policy(std::size_t cap = 400) {
  tm::FragmentPolicy policy;
  policy.max_fragments = cap;
  policy.seed = 7;
  return policy;
}

GmrParams make_params(tm::TuringMachine m, std::size_t cap = 400) {
  GmrParams p{std::move(m), 1, 3, small_policy(cap), false, 4096};
  return p;
}

TEST(Pyramid, IndexerCountsAndPositions) {
  const PyramidIndexer idx(2);  // 4x4 + 2x2 + 1
  EXPECT_EQ(idx.node_count(), 16 + 4 + 1);
  EXPECT_EQ(idx.side(0), 4);
  EXPECT_EQ(idx.side(2), 1);
  const auto pos = idx.position(idx.id(3, 1, 0));
  EXPECT_EQ(pos.x, 3);
  EXPECT_EQ(pos.y, 1);
  EXPECT_EQ(pos.z, 0);
  EXPECT_EQ(idx.apex(), idx.id(0, 0, 2));
}

TEST(Pyramid, BuildStructure) {
  const PyramidIndexer idx(2);
  const graph::CsrGraph g = build_pyramid(idx);
  EXPECT_EQ(g.node_count(), 21);
  // Apex: adjacent to the 2x2 level (4 children), no grid neighbours.
  EXPECT_EQ(g.degree(idx.apex()), 4);
  // Base corner (0,0,0): grid degree 2 + one parent.
  EXPECT_EQ(g.degree(idx.id(0, 0, 0)), 3);
  EXPECT_TRUE(is_pyramid(g, 2));
  EXPECT_FALSE(is_pyramid(g, 3));
  // A mutation breaks it.
  graph::GraphBuilder hb(g.node_count());
  for (const auto& [u, v] : g.edges()) {
    hb.add_edge(u, v);
  }
  hb.add_edge(idx.id(0, 0, 0), idx.id(3, 3, 0));
  EXPECT_FALSE(is_pyramid(hb.build(), 2));
}

TEST(Pyramid, AttachOverExistingGrid) {
  graph::GraphBuilder g(16);  // 4x4 grid nodes 0..15
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      if (x + 1 < 4) g.add_edge(y * 4 + x, y * 4 + x + 1);
      if (y + 1 < 4) g.add_edge(y * 4 + x, (y + 1) * 4 + x);
    }
  }
  const PyramidIndexer idx(2);
  const graph::NodeId first = attach_pyramid(
      g, idx, [](int x, int y) { return static_cast<graph::NodeId>(y * 4 + x); });
  EXPECT_EQ(first, 16);
  EXPECT_EQ(g.node_count(), 21);
  EXPECT_TRUE(is_pyramid(g.build(), 2));
}

TEST(Gmr, LabelRoundTrip) {
  const tm::TuringMachine m = tm::halt_after(2, 0);
  const local::Label l = cell_label(m, 1, 7, 5, 3);
  const auto d = decode_label(l);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->r, 1);
  EXPECT_EQ(d->role, kRoleTableCell);
  EXPECT_EQ(d->xm3, 1);
  EXPECT_EQ(d->ym3, 2);
  EXPECT_EQ(d->code, 3);
  EXPECT_EQ(tm::TuringMachine::decode(d->machine_encoding), m);
  EXPECT_FALSE(decode_label(local::Label{1, 2, 3}).has_value());
}

TEST(Gmr, BuildShape) {
  const GmrParams params = make_params(tm::halt_after(2, 0));
  const GmrInstance inst = build_gmr(params);
  // Table padded to 4x4 (3 rows needed).
  EXPECT_EQ(inst.table_side, 4);
  EXPECT_EQ(inst.halting_step, 2);
  EXPECT_GT(inst.fragment_count, 0u);
  EXPECT_EQ(inst.graph.node_count(),
            static_cast<graph::NodeId>(16 + 9 * inst.fragment_count));
  // The pivot is the start cell and carries all glue edges.
  const auto d = decode_label(inst.graph.label(inst.pivot));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->code, params.machine.head_cell(0, 0));
  EXPECT_GT(inst.graph.graph().degree(inst.pivot),
            static_cast<graph::NodeId>(inst.fragment_count));
}

TEST(Gmr, PyramidalBuildShape) {
  GmrParams params = make_params(tm::halt_after(2, 0), 60);
  params.pyramidal = true;
  params.fragment_size = 4;
  const GmrInstance inst = build_gmr(params);
  // Table pyramid: 4x4 -> +4+1; fragment pyramids: 4x4 -> +4+1 each.
  EXPECT_EQ(inst.graph.node_count(),
            static_cast<graph::NodeId>(16 + 5 +
                                       21 * inst.fragment_count));
}

TEST(Verifier, AcceptsGenuineInstances) {
  for (const tm::ZooEntry& e : tm::small_zoo()) {
    if (!e.halts) {
      continue;
    }
    const GmrParams params = make_params(e.machine);
    const GmrInstance inst = build_gmr(params);
    const auto verifier =
        make_gmr_verifier(3, params.policy, false, params.step_budget);
    const auto run = local::run_oblivious(*verifier, inst.graph);
    EXPECT_TRUE(run.accepted)
        << e.machine.name() << " rejected at node "
        << (run.first_rejecting ? *run.first_rejecting : -1);
  }
}

TEST(Verifier, RejectsCorruptedCellCode) {
  const GmrParams params = make_params(tm::halt_after(2, 0));
  const GmrInstance inst = build_gmr(params);
  const auto verifier =
      make_gmr_verifier(3, params.policy, false, params.step_budget);
  // Flip an interior table cell (cell (1,1): id = 1*4+1 = 5).
  LabeledGraph bad = inst.graph;
  auto d = decode_label(bad.label(5));
  ASSERT_TRUE(d.has_value());
  const int new_code =
      (d->code + 1) % params.machine.cell_code_count();
  bad.set_label(5, cell_label(params.machine, params.r, 1, 1, new_code));
  EXPECT_FALSE(local::run_oblivious(*verifier, bad).accepted);
}

TEST(Verifier, RejectsForeignMachineLabel) {
  const GmrParams params = make_params(tm::halt_after(2, 0));
  const GmrInstance inst = build_gmr(params);
  const auto verifier =
      make_gmr_verifier(3, params.policy, false, params.step_budget);
  LabeledGraph bad = inst.graph;
  bad.set_label(7, cell_label(tm::halt_after(2, 1), params.r, 3, 1,
                              decode_label(bad.label(7))->code));
  EXPECT_FALSE(local::run_oblivious(*verifier, bad).accepted);
}

// Step 1 on a hub ball: one border cell glued to the pivot carries a label
// whose (M, r) differs from everyone else's in a single way. The mutated
// cell lies at distance 2 (via the pivot) from every other border cell, so
// those cells' balls must reject on the label alone.
TEST(Verifier, RejectsOneMismatchedLabelInAHubBall) {
  const GmrParams params = make_params(tm::halt_after(2, 0), 100);
  const GmrInstance inst = build_gmr(params);
  const auto verifier =
      make_gmr_verifier(3, params.policy, false, params.step_budget);
  const graph::CsrGraph& g = inst.graph.graph();
  std::vector<graph::NodeId> border;
  for (graph::NodeId w : g.neighbors(inst.pivot)) {
    if (decode_label(inst.graph.label(w))->role == kRoleFragmentCell) {
      border.push_back(w);
    }
  }
  ASSERT_GE(border.size(), 2u);
  const graph::NodeId mutated = border[0];
  const auto far = std::find_if(border.begin(), border.end(), [&](auto w) {
    return w != mutated && !g.has_edge(w, mutated);
  });
  ASSERT_NE(far, border.end());
  const graph::NodeId observer = *far;

  const std::vector<std::int64_t> fields =
      inst.graph.label(mutated).fields();
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> variants;
  variants.emplace_back("truncated encoding",
                        std::vector(fields.begin(), fields.end() - 1));
  variants.emplace_back("extended encoding", fields);
  variants.back().second.push_back(0);
  variants.emplace_back("different r", fields);
  variants.back().second[1] += 1;
  variants.emplace_back("last encoding field", fields);
  variants.back().second.back() += 1;
  variants.emplace_back("x mod 3 out of range", fields);
  variants.back().second[3] = 3;

  const auto observed = [&](const LabeledGraph& lg) {
    return verifier->evaluate(
        local::extract_ball(lg, nullptr, observer, verifier->horizon()));
  };
  ASSERT_EQ(observed(inst.graph), Verdict::yes);
  for (const auto& [what, mutant] : variants) {
    LabeledGraph bad = inst.graph;
    bad.set_label(mutated, local::Label(mutant));
    EXPECT_EQ(observed(bad), Verdict::no) << what;
    EXPECT_FALSE(local::run_oblivious(*verifier, bad).accepted) << what;
  }
}

TEST(Verifier, RejectsMissingFragment) {
  // Build with one policy, verify expecting a larger collection: the pivot's
  // Lemma-2 set comparison must fail.
  const GmrParams small = make_params(tm::halt_after(1, 0), 50);
  const GmrInstance inst = build_gmr(small);
  ASSERT_FALSE(inst.fragments_exhaustive);
  const auto verifier = make_gmr_verifier(3, small_policy(120), false, 4096);
  EXPECT_FALSE(local::run_oblivious(*verifier, inst.graph).accepted);
}

TEST(Verifier, RejectsPlainGarbage) {
  const auto verifier = make_gmr_verifier(3, small_policy(), false, 4096);
  const LabeledGraph junk = LabeledGraph::uniform(
      graph::make_cycle(6), local::Label{kGmrTag, 1, kRoleTableCell, 0, 0, 0});
  EXPECT_FALSE(local::run_oblivious(*verifier, junk).accepted);
}

TEST(Decider, SeparatesOutput0FromOutput1) {
  const GmrParams yes_params = make_params(tm::halt_after(2, 0));
  const GmrParams no_params = make_params(tm::halt_after(2, 1));
  const auto decider =
      make_gmr_decider(3, yes_params.policy, false, yes_params.step_budget);
  const auto property = property_gmr_outputs0(3, yes_params.policy, false,
                                              yes_params.step_budget);
  std::vector<LabeledGraph> instances;
  instances.push_back(build_gmr(yes_params).graph);
  instances.push_back(build_gmr(no_params).graph);
  ASSERT_TRUE(property->contains(instances[0]));
  ASSERT_FALSE(property->contains(instances[1]));
  Rng rng(3);
  const auto report = local::evaluate_decider(
      *decider, *property, instances, local::consecutive_policy(), 1, rng);
  EXPECT_TRUE(report.all_correct())
      << (report.failures.empty() ? "" : report.failures[0].detail);
}

TEST(Generator, ExactForHaltingMachines) {
  const GmrParams params = make_params(tm::halt_after(1, 0), 100);
  const GeneratedBalls gen = neighborhood_generator(params, 2);
  EXPECT_TRUE(gen.exact);
  EXPECT_EQ(gen.centers.size(),
            static_cast<std::size_t>(gen.host.node_count()));
}

TEST(Generator, TotalForDivergingMachines) {
  for (const tm::TuringMachine& m :
       {tm::bouncer(), tm::right_drifter(), tm::crawler()}) {
    const GmrParams params = make_params(m, 100);
    const GeneratedBalls gen = neighborhood_generator(params, 2);
    EXPECT_FALSE(gen.exact) << m.name();
    EXPECT_GT(gen.centers.size(), 0u) << m.name();
    EXPECT_LT(gen.centers.size(),
              static_cast<std::size_t>(gen.host.node_count()))
        << m.name() << ": bottom rows must be excluded";
  }
}

TEST(Separation, EveryComputableCandidateIsFooled) {
  const tm::FragmentPolicy policy = small_policy(150);
  std::vector<std::pair<std::string,
                        std::unique_ptr<local::LocalAlgorithm>>> candidates;
  candidates.emplace_back("always-yes", candidate_always_yes());
  candidates.emplace_back("structure-only",
                          candidate_structure_only(3, policy, false, 4096));
  candidates.emplace_back(
      "simulate-2", candidate_bounded_simulation(3, policy, false, 4096, 2));
  std::vector<tm::TuringMachine> machines;
  machines.push_back(tm::halt_after(1, 0));
  machines.push_back(tm::halt_after(1, 1));
  machines.push_back(tm::halt_after(4, 1));  // outlasts simulate-2
  const auto rows = run_separation_experiment(candidates, machines, 1, 3,
                                              policy, false, 4096);
  ASSERT_EQ(rows.size(), 9u);
  std::map<std::string, int> misclassifications;
  for (const auto& row : rows) {
    misclassifications[row.candidate] += row.misclassified;
  }
  // Lemma 1 in action: every candidate errs somewhere.
  for (const auto& [name, count] : misclassifications) {
    EXPECT_GT(count, 0) << name;
  }
  // And the specific predictions: structure-only accepts the L1 machines;
  // simulate-2 catches halt_after(1,1) but is fooled by halt_after(4,1).
  for (const auto& row : rows) {
    if (row.candidate == "simulate-2" && row.machine == "halt_after(1,1)") {
      EXPECT_FALSE(row.r_accepts);
      EXPECT_FALSE(row.misclassified);
    }
    if (row.candidate == "simulate-2" && row.machine == "halt_after(4,1)") {
      EXPECT_TRUE(row.r_accepts);
      EXPECT_TRUE(row.misclassified);
    }
  }
}

TEST(Randomized, PerfectCompletenessAndWhpSoundness) {
  const tm::FragmentPolicy policy = small_policy(80);
  const auto decider = make_randomized_gmr_decider(3, policy, false, 4096);
  GmrParams yes_params{tm::halt_after(2, 0), 1, 3, policy, false, 4096};
  GmrParams no_params{tm::zigzag_halt(2, 1), 1, 3, policy, false, 4096};
  const LabeledGraph yes = build_gmr(yes_params).graph;
  const LabeledGraph no = build_gmr(no_params).graph;
  const auto p_yes =
      local::estimate_acceptance(*decider, yes, nullptr, 10, {{}, 17});
  EXPECT_EQ(p_yes.accepted, p_yes.trials);  // one-sided: p = 1
  const auto p_no =
      local::estimate_acceptance(*decider, no, nullptr, 10, {{}, 18});
  EXPECT_EQ(p_no.accepted, 0);  // rejection probability ~ 1 at this n
}

TEST(Randomized, AnalyticBoundDecays) {
  EXPECT_GT(corollary1_failure_bound(16), corollary1_failure_bound(256));
  EXPECT_GT(corollary1_failure_bound(256), corollary1_failure_bound(4096));
  EXPECT_LT(corollary1_failure_bound(4096), 0.01);
}

TEST(PromiseHalting, DeciderAndCandidates) {
  const auto property = promise_halting_property(100'000);
  const auto decider = make_promise_halting_decider();
  // Yes: a diverging machine on any cycle; no: halting within the promise.
  const LabeledGraph yes =
      build_promise_halting_instance(tm::bouncer(), 12);
  const tm::TuringMachine m_halts = tm::halt_after(8, 0);
  const LabeledGraph no = build_promise_halting_instance(m_halts, 12);
  EXPECT_TRUE(property->contains(yes));
  EXPECT_FALSE(property->contains(no));
  Rng rng(5);
  const auto report = local::evaluate_decider(
      *decider, *property, {yes, no}, local::consecutive_policy(), 2, rng);
  EXPECT_TRUE(report.all_correct());
  // A bounded oblivious candidate is fooled by a machine outlasting it.
  const auto candidate = promise_halting_candidate(4);
  EXPECT_TRUE(local::run_oblivious(*candidate, no).accepted)
      << "halt_after(8) fools a budget-4 candidate";
  const LabeledGraph no_fast =
      build_promise_halting_instance(tm::halt_after(3, 0), 12);
  EXPECT_FALSE(local::run_oblivious(*candidate, no_fast).accepted);
}

// Pool threads evaluating a fresh verifier all miss its per-machine memo at
// once. The memo must build each machine's context exactly once and serve
// it read-only afterwards: verdicts equal the serial run's, and nothing is
// torn or leaked (the sanitizer build runs this too). Besides a genuine
// G(M, r), the instance carries isolated decoy nodes naming thousands of
// distinct machines, so the workers also insert into the memo concurrently.
TEST(Verifier, ConcurrentEvaluationMatchesSerial) {
  const GmrParams params = make_params(tm::halt_after(2, 0), 60);
  const GmrInstance inst = build_gmr(params);
  // The decoys' machine is the non-halting bouncer, spelled differently
  // each time: the decoder reads any move field other than 1 as "left", so
  // rewriting one left move gives a distinct encoding of the same machine.
  // Each costs the memo a cheap build (the machine never halts) and an
  // insert.
  const std::vector<std::int64_t> bouncer = tm::bouncer().encode();
  std::size_t left_move = 0;
  for (std::size_t f = 4; f < bouncer.size() && left_move == 0; f += 3) {
    if (bouncer[f] != 1) left_move = f;
  }
  ASSERT_NE(left_move, 0u);
  constexpr graph::NodeId kDecoys = 2000;
  const graph::NodeId n = inst.graph.node_count();
  graph::GraphBuilder builder(n + kDecoys);
  for (const auto& [u, v] : inst.graph.graph().edges()) {
    builder.add_edge(u, v);
  }
  std::vector<local::Label> labels;
  for (graph::NodeId v = 0; v < n; ++v) {
    labels.push_back(inst.graph.label(v));
  }
  for (graph::NodeId i = 0; i < kDecoys; ++i) {
    std::vector<std::int64_t> fields{
        inst.graph.label(0).fields().begin(),
        inst.graph.label(0).fields().begin() + 6};  // the (r, cell) header
    fields.insert(fields.end(), bouncer.begin(), bouncer.end());
    fields[6 + left_move] = -1 - static_cast<std::int64_t>(i);
    labels.emplace_back(std::move(fields));
  }
  const LabeledGraph g(builder.build(), std::move(labels));

  const auto serial_verifier =
      make_gmr_verifier(3, params.policy, false, params.step_budget);
  const local::RunResult serial = local::run_oblivious(*serial_verifier, g);
  ASSERT_TRUE(std::all_of(serial.outputs.begin(),
                          serial.outputs.begin() + n,
                          [](Verdict x) { return x == Verdict::yes; }));
  exec::ThreadPool pool(8);
  for (int rep = 0; rep < 8; ++rep) {
    const auto verifier =
        make_gmr_verifier(3, params.policy, false, params.step_budget);
    const local::RunResult parallel =
        local::run_oblivious(*verifier, g, {.exec = {.pool = &pool}});
    EXPECT_EQ(parallel.outputs, serial.outputs) << "repetition " << rep;
  }
}

class ZooVerifierSweep : public ::testing::TestWithParam<int> {};

// Verifier/builder agreement across zoo machines and both fragment caps.
TEST_P(ZooVerifierSweep, BuilderOutputVerifies) {
  const auto zoo = tm::small_zoo();
  const tm::ZooEntry& e =
      zoo[static_cast<std::size_t>(GetParam()) % zoo.size()];
  if (!e.halts) {
    GTEST_SKIP() << "G(M, r) is defined for halting machines";
  }
  const std::size_t cap = (GetParam() % 2 == 0) ? 120 : 700;
  const GmrParams params = make_params(e.machine, cap);
  const GmrInstance inst = build_gmr(params);
  const auto verifier =
      make_gmr_verifier(3, params.policy, false, params.step_budget);
  EXPECT_TRUE(local::run_oblivious(*verifier, inst.graph).accepted)
      << e.machine.name() << " cap=" << cap;
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooVerifierSweep, ::testing::Range(0, 9));

}  // namespace
}  // namespace locald::halting
