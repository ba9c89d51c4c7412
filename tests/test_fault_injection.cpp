// Differential fault injection across both constructions.
//
// Strategy: start from a valid instance, apply a random structural or
// label mutation, and require that the Id-oblivious verifier and the global
// oracle AGREE on the mutated instance. This catches both unsoundness (a
// verifier accepting what the oracle rejects) and over-rejection bugs, and
// it probes corner cases no hand-written test enumerates.
//
// Mutations that happen to produce another valid instance are fine — the
// agreement requirement handles them uniformly.
#include <gtest/gtest.h>

#include "graph/csr.h"
#include "graph/generators.h"
#include "halting/gmr.h"
#include "halting/verifier.h"
#include "local/fault_profile.h"
#include "local/property.h"
#include "local/simulator.h"
#include "server/api.h"
#include "server/http.h"
#include "server/server.h"
#include "tm/zoo.h"
#include "trees/construction.h"
#include "trees/decide.h"

namespace locald {
namespace {

using local::LabeledGraph;

// The mutation operators are library code now (local/fault_profile.h);
// these tests exercise them through the public registry surface.
using local::mutate;
using local::mutate_add_edge;
using local::mutate_label;

class Sec2Fuzz : public ::testing::TestWithParam<int> {};

TEST_P(Sec2Fuzz, VerifierAgreesWithOracleUnderMutations) {
  trees::TreeParams p;
  p.r = 2;
  p.f = local::IdBound::linear_plus(1);
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const auto verifier = trees::make_P_prime_verifier(p);
  const auto oracle = trees::property_P_prime(p);

  // Base instances: a few patch shapes.
  std::vector<LabeledGraph> bases;
  bases.push_back(
      trees::build_patch_instance(p, trees::subtree_patch(p, 0, 0)));
  bases.push_back(
      trees::build_patch_instance(p, trees::subtree_patch(p, 2, 3)));
  trees::Patch trap;
  trap.r = 2;
  trap.y0 = 3;
  trap.bottom_left = 9;
  trap.bottom_right = 12;
  bases.push_back(trees::build_patch_instance(p, trap));

  int mutants = 0;
  for (const LabeledGraph& base : bases) {
    ASSERT_TRUE(local::run_oblivious(*verifier, base).accepted);
    ASSERT_TRUE(oracle->contains(base));
    for (int i = 0; i < 12; ++i) {
      const LabeledGraph bad = mutate(base, rng);
      const bool verdict = local::run_oblivious(*verifier, bad).accepted;
      const bool truth = oracle->contains(bad);
      EXPECT_EQ(verdict, truth)
          << "seed " << GetParam() << " mutant " << mutants
          << (truth ? ": over-rejection" : ": UNSOUND acceptance");
      ++mutants;
    }
  }
  EXPECT_EQ(mutants, 36);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sec2Fuzz, ::testing::Range(0, 10));

class Sec3Fuzz : public ::testing::TestWithParam<int> {};

// For Section 3 the reconstruction oracle is exact only on builder output,
// so the fuzz requirement is one-sided: every mutated instance the
// verifier ACCEPTS must still be accepted by the oracle's structural
// checks... in practice at these sizes every mutation must be rejected by
// the verifier unless it leaves the instance label-isomorphic; we assert
// rejection for mutations that provably change structure.
TEST_P(Sec3Fuzz, VerifierRejectsStructuralMutations) {
  tm::FragmentPolicy policy;
  policy.max_fragments = 150;
  policy.seed = 3;
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  halting::GmrParams params{tm::halt_after(2, GetParam() % 2), 1, 3, policy,
                            false, 4096};
  const auto inst = halting::build_gmr(params);
  const auto verifier = halting::make_gmr_verifier(3, policy, false, 4096);
  ASSERT_TRUE(local::run_oblivious(*verifier, inst.graph).accepted);

  int rejected = 0;
  const int trials = 8;
  for (int i = 0; i < trials; ++i) {
    // Label-field mutations always change some cell/role/orientation datum.
    const LabeledGraph bad = mutate_label(inst.graph, rng);
    if (!local::run_oblivious(*verifier, bad).accepted) {
      ++rejected;
    }
  }
  // Every label mutation must be caught: labels are load-bearing (machine
  // encoding, orientation, cell codes are all checked).
  EXPECT_EQ(rejected, trials);

  // Extra-edge mutations: adding any edge breaks grid geometry, glue
  // accounting, or the pivot's component shapes.
  rejected = 0;
  for (int i = 0; i < trials; ++i) {
    const LabeledGraph bad = mutate_add_edge(inst.graph, rng);
    if (!local::run_oblivious(*verifier, bad).accepted) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, trials);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sec3Fuzz, ::testing::Range(0, 8));

// The Section-2 decider under the promise-free property P: random id
// assignments drawn from the (B) policy never flip a correct verdict.
class DeciderStability : public ::testing::TestWithParam<int> {};

TEST_P(DeciderStability, VerdictStableAcrossBoundedAssignments) {
  trees::TreeParams p;
  p.r = 2;
  Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
  const auto decider = trees::make_P_decider(p);
  const auto yes =
      trees::build_patch_instance(p, trees::subtree_patch(p, 1, 2));
  for (int i = 0; i < 10; ++i) {
    const auto ids = local::make_random_bounded(yes.node_count(), p.f, rng);
    EXPECT_TRUE(local::run_local_algorithm(*decider, yes, ids).accepted);
  }
  const auto T = trees::build_T(p);
  for (int i = 0; i < 3; ++i) {
    const auto ids = local::make_random_bounded(T.node_count(), p.f, rng);
    EXPECT_FALSE(local::run_local_algorithm(*decider, T, ids).accepted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeciderStability, ::testing::Range(0, 5));

// --- Fault-profile selector round trips ------------------------------------

TEST(FaultSelector, CanonicalSpellsEveryDefaultAndIsAFixedPoint) {
  for (const local::FaultProfile& p : local::fault_registry()) {
    const auto inst = local::resolve_faults_text(p.name);
    // Bare name resolves to all defaults...
    for (const ParamSpec& spec : p.params) {
      EXPECT_EQ(inst.value(spec.name), spec.default_value) << p.name;
    }
    // ...and the canonical encoding re-resolves to itself.
    const std::string canonical = inst.canonical();
    EXPECT_EQ(local::resolve_faults_text(canonical).canonical(), canonical)
        << p.name;
  }
}

TEST(FaultSelector, PartialOverrideRoundTrips) {
  const auto inst = local::resolve_faults_text("drop:per-mille=50");
  EXPECT_EQ(inst.value("per-mille"), 50);
  EXPECT_EQ(inst.value("attempts"), 3);  // untouched default
  EXPECT_EQ(inst.canonical(), "drop:per-mille=50,attempts=3");
  EXPECT_EQ(local::resolve_faults_text(inst.canonical()).canonical(),
            inst.canonical());
}

TEST(FaultSelector, KnobsReflectResolvedValues) {
  const auto knobs =
      local::resolve_faults_text("chaos:delay=5,per-mille=10,pieces=4")
          .knobs();
  EXPECT_EQ(knobs.delay_max, 5);
  EXPECT_EQ(knobs.loss_per_mille, 10);
  EXPECT_EQ(knobs.attempts, 4);  // chaos default
  EXPECT_EQ(knobs.fragments, 4);
}

TEST(FaultSelector, MalformedSelectorsThrow) {
  EXPECT_THROW(local::resolve_faults_text("nope"), Error);
  EXPECT_THROW(local::resolve_faults_text("drop:unknown=1"), Error);
  EXPECT_THROW(local::resolve_faults_text("drop:per-mille=2000"), Error);
  EXPECT_THROW(local::resolve_faults_text("drop:per-mille=1,per-mille=2"),
               Error);
  EXPECT_THROW(local::resolve_faults_text("drop:per-mille"), Error);
  EXPECT_THROW(local::resolve_faults_text(""), Error);
  EXPECT_THROW(local::resolve_faults_text("drop:per-mille=abc"), Error);
}

// --- CLI vs HTTP byte agreement under a fault profile ----------------------

// The serving layer's byte-identity contract must survive fault
// parameterization: `locald run --format json` (run_document) at one and at
// several threads, and a routed POST /v1/run, all emit literally the same
// bytes for the same (scenario, seed, size, trials, fault_profile) tuple.
TEST(FaultByteIdentity, CliAndServerAgreeAcrossThreadCounts) {
  cli::ScenarioOptions serial;
  serial.seed = 7;
  serial.size = 12;
  serial.trials = 2;
  serial.faults = "chaos:delay=1,per-mille=300,attempts=2,pieces=2";

  exec::VerdictCache serial_cache;
  serial.exec.cache = &serial_cache;
  const std::string cli_serial =
      server::run_document("fault-robustness", serial, nullptr);

  exec::ThreadPool pool(3);
  exec::VerdictCache parallel_cache;
  cli::ScenarioOptions parallel = serial;
  parallel.exec.pool = &pool;
  parallel.exec.cache = &parallel_cache;
  const std::string cli_parallel =
      server::run_document("fault-robustness", parallel, nullptr);
  EXPECT_EQ(cli_serial, cli_parallel);

  server::Server srv(server::ServeOptions{});
  server::HttpRequest http;
  http.method = "POST";
  http.target = "/v1/run";
  http.version = "HTTP/1.1";
  http.body =
      "{\"scenario\":\"fault-robustness\",\"seed\":7,\"size\":12,"
      "\"trials\":2,\"fault_profile\":"
      "\"chaos:delay=1,per-mille=300,attempts=2,pieces=2\"}";
  const server::HttpResponse response = srv.handle(http);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, cli_serial);
}

TEST(FaultByteIdentity, UnsupportedScenarioRejectsFaultProfile) {
  server::Server srv(server::ServeOptions{});
  server::HttpRequest http;
  http.method = "POST";
  http.target = "/v1/run";
  http.version = "HTTP/1.1";
  http.body = "{\"scenario\":\"table1-matrix\",\"fault_profile\":\"chaos\"}";
  EXPECT_EQ(srv.handle(http).status, 400);
}

}  // namespace
}  // namespace locald
