// Tests for the workload generator: selector parsing and canonical
// encodings, per-family declared invariants (node/edge counts, degree
// bound, connectivity, bipartiteness) across sizes and seeds, build
// determinism (same params + seed => identical edge list), the
// stream-seeded random builders, the deterministic family workload, the
// invariant audit's failure path and its one-pass 2-colouring, and
// byte-identity of the `locald bench` document across thread grids.
#include <gtest/gtest.h>

#include <sstream>

#include "cli/bench.h"
#include "gen/family.h"
#include "gen/workload.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/pyramid.h"
#include "support/json.h"

namespace locald::gen {
namespace {

// ---- selector parsing and canonical encodings ------------------------------

TEST(FamilySelector, ParsesBareName) {
  const Selector spec = parse_selector("cycle", kFamilySelector);
  EXPECT_EQ(spec.name, "cycle");
  EXPECT_TRUE(spec.params.empty());
}

TEST(FamilySelector, ParsesParameterList) {
  const Selector spec =
      parse_selector("torus:width=8,height=6", kFamilySelector);
  EXPECT_EQ(spec.name, "torus");
  ASSERT_EQ(spec.params.size(), 2u);
  EXPECT_EQ(spec.params[0].first, "width");
  EXPECT_EQ(spec.params[0].second, 8);
  EXPECT_EQ(spec.params[1].first, "height");
  EXPECT_EQ(spec.params[1].second, 6);
}

TEST(FamilySelector, RejectsMalformedSelectors) {
  EXPECT_THROW(parse_selector("", kFamilySelector), Error);
  EXPECT_THROW(parse_selector(":n=3", kFamilySelector), Error);
  EXPECT_THROW(parse_selector("cycle:", kFamilySelector), Error);
  EXPECT_THROW(parse_selector("cycle:n", kFamilySelector), Error);
  EXPECT_THROW(parse_selector("cycle:n=abc", kFamilySelector), Error);
  EXPECT_THROW(parse_selector("cycle:n=3,n=4", kFamilySelector), Error);
  EXPECT_THROW(parse_selector("cycle:=3", kFamilySelector), Error);
}

TEST(FamilySelector, ResolutionRejectsUnknownNamesAndParams) {
  EXPECT_THROW(resolve_family_text("moebius"), Error);
  EXPECT_THROW(resolve_family_text("cycle:girth=3"), Error);
  EXPECT_THROW(resolve_family_text("cycle:n=2"), Error);        // below min
  EXPECT_THROW(resolve_family_text("gnp:permille=1001"), Error);
}

TEST(FamilySelector, CanonicalEncodingSpellsOutEveryParameter) {
  EXPECT_EQ(resolve_family_text("torus").canonical(),
            "torus:width=8,height=8");
  EXPECT_EQ(resolve_family_text("torus:height=6").canonical(),
            "torus:width=8,height=6");
  EXPECT_EQ(resolve_family_text("cycle:n=10").canonical(), "cycle:n=10");
}

TEST(FamilySelector, CanonicalEncodingRoundTrips) {
  for (const Family& family : family_registry()) {
    const FamilyInstanceSpec spec = resolve_family_text(family.name, 40);
    const FamilyInstanceSpec again = resolve_family_text(spec.canonical());
    EXPECT_EQ(again.canonical(), spec.canonical());
    EXPECT_EQ(again.values(), spec.values());
  }
}

TEST(FamilySelector, ExplicitParametersOverrideSizeMapping) {
  const FamilyInstanceSpec spec = resolve_family_text("cycle:n=9", 100);
  EXPECT_EQ(spec.value("n"), 9);
}

TEST(FamilySelector, SizeMappingSeesExplicitSiblingParameters) {
  // The depth the mapping picks must be computed with the arity that will
  // actually build, not the default: at arity 3 a depth-4 tree has 121
  // nodes (> 100), so the largest fitting depth is 3 (40 nodes).
  const FamilyInstanceSpec tree =
      resolve_family_text("balanced-tree:arity=3", 100);
  EXPECT_EQ(tree.value("depth"), 3);
  EXPECT_LE(tree.build(1).node_count(), 100);
  const FamilyInstanceSpec cat = resolve_family_text("caterpillar:legs=9", 100);
  EXPECT_EQ(cat.value("spine"), 10);
  EXPECT_EQ(cat.build(1).node_count(), 100);
  // A pinned dimension turns the target into the other dimension.
  const FamilyInstanceSpec grid = resolve_family_text("grid:width=2", 100);
  EXPECT_EQ(grid.value("height"), 50);
  const FamilyInstanceSpec torus = resolve_family_text("torus:height=4", 100);
  EXPECT_EQ(torus.value("width"), 25);
  const FamilyInstanceSpec kab =
      resolve_family_text("complete-bipartite:a=1", 100);
  EXPECT_EQ(kab.value("b"), 99);
}

// ---- registry-wide invariants ----------------------------------------------

TEST(FamilyRegistry, HasAtLeastEightFamilies) {
  EXPECT_GE(family_registry().size(), 8u);
}

// Every declared invariant must hold on built instances, across the size
// grid and across seeds.
TEST(FamilyRegistry, DeclaredInvariantsHoldAcrossSizesAndSeeds) {
  for (const Family& family : family_registry()) {
    for (const std::int64_t size : {0, 12, 40, 150}) {
      const FamilyInstanceSpec spec = resolve_family_text(family.name, size);
      const Invariants declared = spec.invariants();
      for (const std::uint64_t seed : {7ull, 1234ull}) {
        SCOPED_TRACE(spec.canonical() + " seed " + std::to_string(seed));
        const graph::CsrGraph g = spec.build(seed);
        if (declared.node_count >= 0) {
          EXPECT_EQ(g.node_count(), declared.node_count);
        }
        if (declared.edge_count >= 0) {
          EXPECT_EQ(static_cast<std::int64_t>(g.edge_count()),
                    declared.edge_count);
        }
        if (declared.degree_bound >= 0 && g.node_count() > 0) {
          EXPECT_LE(g.max_degree(), declared.degree_bound);
        }
        if (declared.connected) {
          EXPECT_TRUE(graph::is_connected(g));
        }
        if (declared.bipartite) {
          EXPECT_TRUE(graph::is_bipartite(g));
        }
      }
    }
  }
}

TEST(FamilyRegistry, SizeMappingTracksTargetNodeCount) {
  for (const Family& family : family_registry()) {
    for (const std::int64_t size : {10, 50, 200}) {
      const FamilyInstanceSpec spec = resolve_family_text(family.name, size);
      const graph::CsrGraph g = spec.build(3);
      // The mapping never overshoots by more than the family's granularity
      // (the parity bump of random-regular is the one off-by-one).
      EXPECT_LE(g.node_count(), size + 1) << spec.canonical();
      EXPECT_GE(g.node_count(), 1) << spec.canonical();
    }
  }
}

TEST(FamilyRegistry, SameParamsAndSeedGiveIdenticalEdgeLists) {
  for (const Family& family : family_registry()) {
    const FamilyInstanceSpec spec = resolve_family_text(family.name, 40);
    const graph::CsrGraph a = spec.build(99);
    const graph::CsrGraph b = spec.build(99);
    EXPECT_EQ(a.edges(), b.edges()) << spec.canonical();
  }
}

TEST(FamilyRegistry, RandomFamiliesVaryWithTheSeed) {
  for (const Family& family : family_registry()) {
    if (!family.randomized) {
      continue;
    }
    const FamilyInstanceSpec spec = resolve_family_text(family.name, 64);
    EXPECT_NE(spec.build(1).edges(), spec.build(2).edges())
        << spec.canonical();
  }
}

TEST(FamilyRegistry, DeterministicFamiliesIgnoreTheSeed) {
  for (const Family& family : family_registry()) {
    if (family.randomized) {
      continue;
    }
    const FamilyInstanceSpec spec = resolve_family_text(family.name, 40);
    EXPECT_EQ(spec.build(1).edges(), spec.build(2).edges())
        << spec.canonical();
  }
}

// ---- specific families -----------------------------------------------------

TEST(Families, RandomRegularIsExactlyRegular) {
  const FamilyInstanceSpec spec =
      resolve_family_text("random-regular:n=30,d=4");
  const graph::CsrGraph g = spec.build(5);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(g.degree(v), 4);
  }
}

TEST(Families, RandomRegularRejectsOddStubCount) {
  EXPECT_THROW(resolve_family_text("random-regular:n=7,d=3").build(1), Error);
}

TEST(Families, RandomRegularBuildsAtTheSchemaDegreeBound) {
  // d = 5 sits at the rejection-model bound the schema enforces; a spread
  // of seeds must all find a simple pairing within the retry budget.
  EXPECT_THROW(resolve_family_text("random-regular:n=64,d=6"), Error);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 42ull}) {
    const graph::CsrGraph g =
        resolve_family_text("random-regular:n=64,d=5").build(seed);
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(g.degree(v), 5);
    }
  }
}

TEST(Families, CompleteBipartiteMatchesTheOracle) {
  const graph::CsrGraph g = graph::make_complete_bipartite(3, 5);
  EXPECT_EQ(g.node_count(), 8);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_TRUE(graph::is_bipartite(g));
  for (graph::NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(g.degree(u), 5);
    for (graph::NodeId v = 0; v < 3; ++v) {
      EXPECT_FALSE(g.has_edge(u, v) && u != v);
    }
  }
}

TEST(Families, BalancedTreeIsHeapIndexed) {
  graph::EdgeList binary;  // children of v are 2v + 1 and 2v + 2
  for (graph::NodeId v = 0; 2 * v + 2 < 15; ++v) {
    binary.emplace_back(v, 2 * v + 1);
    binary.emplace_back(v, 2 * v + 2);
  }
  EXPECT_EQ(graph::make_balanced_tree(2, 3).edges(), binary);
  const graph::CsrGraph t = graph::make_balanced_tree(3, 2);
  EXPECT_EQ(t.node_count(), 13);  // 1 + 3 + 9
  EXPECT_TRUE(graph::is_tree(t));
  EXPECT_EQ(t.degree(0), 3);
}

TEST(Families, CaterpillarIsATreeWithTheDeclaredShape) {
  const graph::CsrGraph g = graph::make_caterpillar(4, 2);
  EXPECT_EQ(g.node_count(), 12);
  EXPECT_TRUE(graph::is_tree(g));
  EXPECT_EQ(g.degree(0), 3);  // spine end: 1 spine + 2 legs
  EXPECT_EQ(g.degree(1), 4);  // interior: 2 spine + 2 legs
  EXPECT_EQ(g.degree(11), 1);  // a leg
}

TEST(Families, PyramidFamilySharesTheHaltingBuilder) {
  EXPECT_TRUE(graph::is_pyramid(graph::make_pyramid(2), 2));
  EXPECT_EQ(resolve_family_text("pyramid:height=2").build(0).edges(),
            graph::make_pyramid(2).edges());
}

TEST(Families, LayeredTreeFamilySharesTheSection2Builder) {
  EXPECT_EQ(resolve_family_text("layered-tree:depth=3").build(0).edges(),
            graph::make_layered_tree(3).edges());
}

// ---- stream-seeded random builders -----------------------------------------

TEST(StreamSeededGenerators, AreCallOrderIndependent) {
  // Interleaving other stream draws must not perturb a seed-based build —
  // unlike the legacy Rng& overloads, whose draws depend on generator
  // position.
  const graph::CsrGraph a = graph::make_random_gnp(24, 0.3, 77);
  graph::make_random_tree(10, 77);
  graph::make_random_regular(10, 3, 77);
  const graph::CsrGraph b = graph::make_random_gnp(24, 0.3, 77);
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(StreamSeededGenerators, FamiliesDrawFromDisjointStreamPlanes) {
  // Same seed, different family: the stream ids keep the coins apart, so
  // the tree inside make_random_connected differs from make_random_tree's
  // chords only by the chord plane.
  const graph::CsrGraph tree = graph::make_random_tree(20, 5);
  const graph::CsrGraph connected = graph::make_random_connected(20, 6, 5);
  for (const auto& [u, v] : tree.edges()) {
    EXPECT_TRUE(connected.has_edge(u, v));  // the tree plane is shared
  }
  EXPECT_EQ(connected.edge_count(), tree.edge_count() + 6);
  EXPECT_TRUE(graph::is_connected(connected));
}

// ---- the deterministic workload --------------------------------------------

TEST(Workload, CycleCellIsFullyDetermined) {
  const FamilyInstanceSpec spec = resolve_family_text("cycle:n=5");
  WorkloadOptions opts;
  opts.seed = 11;
  const WorkloadResult r = run_family_workload(spec, opts, {});
  EXPECT_EQ(r.family, "cycle:n=5");
  EXPECT_EQ(r.nodes, 5);
  EXPECT_EQ(r.edges, 5);
  EXPECT_EQ(r.max_degree, 2);
  EXPECT_TRUE(r.invariants_ok);
  EXPECT_EQ(r.ball_classes, 1);  // every radius-1 ball is a 3-path
  EXPECT_EQ(r.memo_hits,
            static_cast<std::int64_t>(workload_panel_names().size()) * 4);
  ASSERT_EQ(r.panel.size(), workload_panel_names().size());
  EXPECT_EQ(r.panel[0].algorithm, "even-degree");
  EXPECT_EQ(r.panel[0].yes_nodes, 5);
  EXPECT_TRUE(r.panel[0].accepted);
}

TEST(Workload, SymmetricFamilyCellsReportExactBallClassCounts) {
  // PR 4's census fell back to a degree-profile invariant on these shapes
  // (k >= 7 interchangeable star leaves); the two-tier engine censuses
  // them exactly. The expected counts are forced by the topology: every
  // radius-1 ball in a hypercube or K_{m,m} is a centre-marked star, so
  // Q_d has one class, K_{m,m} one (m = m), K_{a,b} two (a != b), and a
  // star host two (hub ball = the whole star, leaf ball = one edge).
  const auto classes_of = [](const std::string& selector) {
    WorkloadOptions opts;
    const WorkloadResult r =
        run_family_workload(resolve_family_text(selector), opts, {});
    EXPECT_TRUE(r.invariants_ok) << selector;
    return r.ball_classes;
  };
  EXPECT_EQ(classes_of("hypercube:dims=4"), 1);
  EXPECT_EQ(classes_of("hypercube:dims=6"), 1);
  EXPECT_EQ(classes_of("complete-bipartite:a=8,b=8"), 1);
  EXPECT_EQ(classes_of("complete-bipartite:a=4,b=7"), 2);
  EXPECT_EQ(classes_of("complete-bipartite:a=1,b=40"), 2);
}

TEST(Workload, PanelCountsMatchBetweenSerialAndPooledRuns) {
  const FamilyInstanceSpec spec = resolve_family_text("gnp:n=40,permille=200");
  WorkloadOptions opts;
  opts.seed = 4;
  const WorkloadResult serial = run_family_workload(spec, opts, {});
  exec::ThreadPool pool(4);
  exec::VerdictCache cache;
  exec::ExecContext ctx;
  ctx.pool = &pool;
  ctx.cache = &cache;
  const WorkloadResult pooled = run_family_workload(spec, opts, ctx);
  EXPECT_EQ(serial.nodes, pooled.nodes);
  EXPECT_EQ(serial.edges, pooled.edges);
  EXPECT_EQ(serial.ball_classes, pooled.ball_classes);
  EXPECT_EQ(serial.memo_hits, pooled.memo_hits);
  ASSERT_EQ(serial.panel.size(), pooled.panel.size());
  for (std::size_t i = 0; i < serial.panel.size(); ++i) {
    EXPECT_EQ(serial.panel[i].yes_nodes, pooled.panel[i].yes_nodes);
    EXPECT_EQ(serial.panel[i].accepted, pooled.panel[i].accepted);
  }
}

// ---- the invariant audit's failure path ------------------------------------

graph::CsrGraph build_two_triangles(const std::vector<std::int64_t>&,
                                    std::uint64_t) {
  return graph::CsrGraph::from_edges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
}

graph::CsrGraph build_nine_cycle(const std::vector<std::int64_t>&,
                                 std::uint64_t) {
  return graph::make_cycle(9);
}

Invariants claims_connected(const std::vector<std::int64_t>&) {
  return {.connected = true};
}

Invariants claims_bipartite(const std::vector<std::int64_t>&) {
  return {.bipartite = true};
}

Invariants claims_both(const std::vector<std::int64_t>&) {
  return {.connected = true, .bipartite = true};
}

Family lying_family(std::string name, Family::InvariantsFn declared,
                    Family::BuildFn build) {
  Family family;
  family.name = std::move(name);
  family.declared_invariants = declared;
  family.build = build;
  return family;
}

// Families whose declarations lie must fail the audit with exactly the
// violated declarations, at any thread count.
TEST(Workload, FalseDeclarationsFailTheAudit) {
  const std::string not_connected =
      "declared connected, built instance is not";
  const std::string not_bipartite =
      "declared bipartite, built instance is not";
  struct Case {
    Family family;
    std::vector<std::string> failures;
  };
  const std::vector<Case> cases = {
      {lying_family("two-triangles", claims_connected, build_two_triangles),
       {not_connected}},
      {lying_family("nine-cycle", claims_bipartite, build_nine_cycle),
       {not_bipartite}},
      {lying_family("two-triangles", claims_both, build_two_triangles),
       {not_connected, not_bipartite}},
  };
  for (const Case& c : cases) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(c.family.name + " x" + std::to_string(threads));
      exec::ThreadPool pool(threads);
      const WorkloadResult r = run_family_workload(
          FamilyInstanceSpec(&c.family, {}), {}, {.pool = &pool});
      EXPECT_FALSE(r.invariants_ok);
      EXPECT_EQ(r.invariant_failures, c.failures);
    }
  }
}

// Components by repeated BFS, and bipartiteness as "every edge joins BFS
// depths of different parity": the textbook definitions `two_colour`
// fuses into one pass.
graph::TwoColouring reference_two_colour(const graph::CsrGraph& g) {
  graph::TwoColouring out;
  std::vector<int> depth(static_cast<std::size_t>(g.node_count()),
                         graph::kUnreached);
  for (graph::NodeId s = 0; s < g.node_count(); ++s) {
    if (depth[static_cast<std::size_t>(s)] != graph::kUnreached) {
      continue;
    }
    ++out.components;
    const std::vector<int> dist = graph::bfs_distances(g, s);
    for (std::size_t v = 0; v < dist.size(); ++v) {
      if (dist[v] != graph::kUnreached) {
        depth[v] = dist[v];
      }
    }
  }
  for (const auto& [u, v] : g.edges()) {
    if (depth[static_cast<std::size_t>(u)] % 2 ==
        depth[static_cast<std::size_t>(v)] % 2) {
      out.bipartite = false;
    }
  }
  return out;
}

TEST(InvariantAudit, TwoColourMatchesBfsReferences) {
  struct Case {
    const char* name;
    graph::CsrGraph g;
    graph::NodeId components;
    bool bipartite;
  };
  const std::vector<Case> cases = {
      {"empty", graph::CsrGraph::from_edges(0, {}), 0, true},
      {"single node", graph::CsrGraph::from_edges(1, {}), 1, true},
      // A path, a 4-cycle and an isolated node.
      {"disconnected bipartite",
       graph::CsrGraph::from_edges(
           8, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}, {3, 6}}),
       3, true},
      // An edge, then a triangle: the odd cycle sits past the first BFS.
      {"odd cycle in the second component",
       graph::CsrGraph::from_edges(5, {{0, 1}, {2, 3}, {3, 4}, {2, 4}}), 2,
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const graph::TwoColouring got = graph::two_colour(c.g);
    const graph::TwoColouring want = reference_two_colour(c.g);
    EXPECT_EQ(got.components, c.components);
    EXPECT_EQ(got.bipartite, c.bipartite);
    EXPECT_EQ(got.components, want.components);
    EXPECT_EQ(got.bipartite, want.bipartite);
    EXPECT_EQ(graph::is_connected(c.g), c.components <= 1);
    EXPECT_EQ(graph::is_bipartite(c.g), c.bipartite);
  }
}

// ---- the bench document ----------------------------------------------------

TEST(Bench, DocumentIsByteIdenticalAcrossThreadGrids) {
  cli::BenchOptions base;
  base.seed = 9;
  base.families = {"cycle", "random-regular", "gnp:n=48"};
  base.sizes = {16, 33};
  std::ostringstream serial;
  std::ostringstream pooled;
  cli::BenchOptions a = base;
  a.thread_grid = {1};
  EXPECT_EQ(cli::run_bench(a, serial), 0);
  cli::BenchOptions b = base;
  b.thread_grid = {4, 2};  // internal cross-thread gate runs too
  EXPECT_EQ(cli::run_bench(b, pooled), 0);
  EXPECT_EQ(serial.str(), pooled.str());
}

TEST(Bench, SelectorErrorsThrowBeforeAnyCellRuns) {
  cli::BenchOptions bench;
  bench.families = {"cycle", "moebius"};
  std::ostringstream out;
  EXPECT_THROW(cli::run_bench(bench, out), Error);
  bench.families = {"cycle"};
  bench.faults = "drop:per-mille=5000";
  EXPECT_THROW(cli::run_bench(bench, out), Error);
  EXPECT_EQ(out.str(), "");
}

TEST(Bench, BuildErrorsStayCellErrorsCarryingTheirMessageAlone) {
  cli::BenchOptions bench;
  bench.families = {"cycle", "random-regular:n=7,d=3"};
  std::ostringstream out;
  EXPECT_EQ(cli::run_bench(bench, out), 1);
  const JsonValue doc = parse_json(out.str());
  const std::vector<JsonValue>& cells = doc.find("cells")->items();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].find("error"), nullptr);
  ASSERT_NE(cells[1].find("error"), nullptr);
  EXPECT_EQ(cells[1].find("error")->as_string(),
            "n * d must be even for a d-regular graph");
  EXPECT_FALSE(doc.find("all_ok")->as_bool());
}

TEST(Bench, TimingFieldsStayOutOfTheDefaultDocument) {
  cli::BenchOptions bench;
  bench.families = {"cycle"};
  bench.thread_grid = {1, 2};
  std::ostringstream plain;
  std::ostringstream timed;
  EXPECT_EQ(cli::run_bench(bench, plain), 0);
  bench.timing = true;
  EXPECT_EQ(cli::run_bench(bench, timed), 0);
  EXPECT_EQ(plain.str().find("wall_ms"), std::string::npos);
  EXPECT_EQ(plain.str().find("\"threads\""), std::string::npos);
  EXPECT_NE(timed.str().find("wall_ms"), std::string::npos);
  EXPECT_NE(timed.str().find("\"threads\""), std::string::npos);
}

}  // namespace
}  // namespace locald::gen
