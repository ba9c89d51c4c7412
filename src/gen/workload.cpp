#include "gen/workload.h"

#include <memory>

#include "graph/algorithms.h"
#include "graph/isomorphism.h"
#include "local/algorithm.h"
#include "local/ball.h"
#include "local/identifiers.h"
#include "local/labeled_graph.h"
#include "local/simulator.h"
#include "obs/trace.h"
#include "support/format.h"

namespace locald::gen {

namespace {

// The fixed Id-oblivious horizon-1 panel. All three are pure functions of
// the stripped ball's isomorphism class, so they are memoization-safe and
// their verdict counts are scheduling-deterministic.
const std::vector<std::unique_ptr<local::LocalAlgorithm>>& panel() {
  static const auto algorithms = [] {
    std::vector<std::unique_ptr<local::LocalAlgorithm>> p;
    p.push_back(local::make_oblivious(
        "even-degree", 1, [](const local::BallView& ball) {
          return ball.g.degree(ball.center) % 2 == 0 ? local::Verdict::yes
                                                     : local::Verdict::no;
        }));
    p.push_back(local::make_oblivious(
        "triangle-free", 1, [](const local::BallView& ball) {
          const auto& nbrs = ball.g.neighbors(ball.center);
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
              if (ball.g.has_edge(nbrs[i], nbrs[j])) {
                return local::Verdict::no;
              }
            }
          }
          return local::Verdict::yes;
        }));
    p.push_back(local::make_oblivious(
        "max-degree-4", 1, [](const local::BallView& ball) {
          return ball.g.degree(ball.center) <= 4 ? local::Verdict::yes
                                                 : local::Verdict::no;
        }));
    return p;
  }();
  return algorithms;
}

void check_invariants(const Invariants& declared,
                      const graph::CsrGraph& g,
                      WorkloadResult& out) {
  auto fail = [&out](std::string why) {
    out.invariant_failures.push_back(std::move(why));
  };
  if (declared.node_count >= 0 && declared.node_count != out.nodes) {
    fail(cat("declared node_count ", declared.node_count, ", built ",
             out.nodes));
  }
  if (declared.edge_count >= 0 && declared.edge_count != out.edges) {
    fail(cat("declared edge_count ", declared.edge_count, ", built ",
             out.edges));
  }
  if (declared.degree_bound >= 0 && out.max_degree > declared.degree_bound) {
    fail(cat("declared degree bound ", declared.degree_bound,
             ", built max degree ", out.max_degree));
  }
  if (declared.connected || declared.bipartite) {
    const graph::TwoColouring colouring = graph::two_colour(g);
    if (declared.connected && colouring.components > 1) {
      fail("declared connected, built instance is not");
    }
    if (declared.bipartite && !colouring.bipartite) {
      fail("declared bipartite, built instance is not");
    }
  }
  out.invariants_ok = out.invariant_failures.empty();
}

}  // namespace

const std::vector<std::string>& workload_panel_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& algorithm : panel()) {
      out.push_back(algorithm->name());
    }
    return out;
  }();
  return names;
}

WorkloadResult run_family_workload(const FamilyInstanceSpec& spec,
                                   const WorkloadOptions& opts,
                                   const exec::ExecContext& exec) {
  WorkloadResult out;
  out.family = spec.canonical();
  obs::Span workload_span("family-workload", spec.canonical());
  // The instance owns the one copy of the graph; the census, the audit and
  // the panel all read it.
  const local::LabeledGraph instance = [&] {
    obs::Span span("build-graph");
    return local::LabeledGraph(spec.build(opts.seed));
  }();
  const graph::CsrGraph& g = instance.graph();
  out.nodes = g.node_count();
  out.edges = static_cast<std::int64_t>(g.edge_count());
  out.max_degree = g.node_count() == 0 ? 0 : g.max_degree();
  {
    obs::Span span("invariant-audit");
    check_invariants(spec.invariants(), g, out);
  }

  // Exact ball census on the two-tier canonicalization engine: byte-
  // identical extracted balls share one canonicalization, and the orbit-
  // pruned tier-2 search keeps even pathologically symmetric balls (a star
  // with k interchangeable leaves — hypercube and complete-bipartite
  // centres) near-linear instead of k!, so every cell reports exact
  // isomorphism classes — no degree-profile fallback, on any family. The
  // instance is unlabelled, so the census gets no payloads.
  const graph::BallCensusResult census =
      graph::canonical_census(g, {}, /*radius=*/1, exec.pool);
  out.ball_classes = census.distinct;

  // The panel is evaluated once per distinct class (its verdicts are pure
  // functions of the class — that is what the census memoizes), then the
  // per-class verdicts are scattered over the class members in node order:
  // byte-identical to evaluating every node, at a fraction of the cost,
  // and trivially scheduling-deterministic. The census hands over the
  // class partition (class_of / class_representative) directly.
  std::vector<std::vector<local::Verdict>> class_verdicts(
      panel().size(), std::vector<local::Verdict>(
                          census.class_representative.size(),
                          local::Verdict::yes));
  {
    const std::size_t classes = census.class_representative.size();
    obs::Span span("panel-evaluate", "classes=" + std::to_string(classes));
    exec::parallel_for(exec.pool, classes, [&](std::size_t k) {
      static thread_local local::BallScratch scratch;
      const local::BallView ball = scratch.extract(
          instance, nullptr, census.class_representative[k], 1);
      obs::Span eval_span("evaluate-class");
      for (std::size_t a = 0; a < panel().size(); ++a) {
        class_verdicts[a][k] = panel()[a]->evaluate(ball);
      }
    });
  }

  for (std::size_t a = 0; a < panel().size(); ++a) {
    PanelVerdict verdict;
    verdict.algorithm = panel()[a]->name();
    bool all_yes = true;
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const bool yes =
          class_verdicts[a][census.class_of[static_cast<std::size_t>(v)]] ==
          local::Verdict::yes;
      verdict.yes_nodes += yes ? 1 : 0;
      all_yes = all_yes && yes;
    }
    verdict.accepted = g.node_count() > 0 ? all_yes : true;
    out.panel.push_back(std::move(verdict));
  }
  // Serial-equivalent memoization: each algorithm decides every distinct
  // class once and hits on the rest.
  out.memo_hits = static_cast<std::int64_t>(panel().size()) *
                  (out.nodes - out.ball_classes);
  return out;
}

FaultRobustnessResult run_fault_robustness(
    const FamilyInstanceSpec& spec, const WorkloadOptions& opts,
    const local::FaultProfileInstance& profile,
    const exec::ExecContext& exec) {
  FaultRobustnessResult out;
  out.family = spec.canonical();
  out.profile = profile.canonical();
  obs::Span pass_span("fault-robustness", out.profile);
  const local::LabeledGraph instance(spec.build(opts.seed));
  out.nodes = instance.node_count();
  // Consecutive transport ids: the panel is Id-oblivious, so any
  // deterministic assignment yields the same verdicts.
  const local::IdAssignment ids =
      local::make_consecutive(instance.node_count());
  const local::FaultProfileInstance control =
      local::resolve_faults_text("none");
  std::vector<const local::LocalAlgorithm*> algs;
  for (const auto& algorithm : panel()) {
    algs.push_back(algorithm.get());
  }

  // The clean truth is direct ball evaluation: by the paper's section 1.2
  // equivalence it is the clean synchronous verdict. One panel extracts
  // each ball once for all three algorithms. Pool only, no cache: the panel
  // is cheaper to evaluate than a ball is to canonicalize.
  std::vector<std::vector<local::Verdict>> truth;
  for (local::RunResult& run : local::run_panel(
           algs, instance, nullptr, {.exec = {.pool = exec.pool}})) {
    truth.push_back(std::move(run.outputs));
  }
  // One flood per profile decides the whole panel: the gathered knowledge
  // does not depend on the algorithm. A `none` pass needs only the control.
  const bool faulty_is_control = profile.entry().name == "none";
  std::vector<local::FloodResult> floods(faulty_is_control ? 1 : 2);
  exec::parallel_for(exec.pool, floods.size(), [&](std::size_t i) {
    const local::FaultProfileInstance& flood_profile =
        i == 0 ? control : profile;
    obs::Span span("fault-flood", flood_profile.canonical());
    floods[i] = local::run_flood(algs, instance, ids, flood_profile, opts.seed);
  });
  const local::FloodResult& faulty = floods.back();

  for (std::size_t a = 0; a < algs.size(); ++a) {
    FaultPanelRow row;
    row.algorithm = algs[a]->name();
    row.control_identical = floods.front().verdicts[a] == truth[a];
    for (std::size_t v = 0; v < truth[a].size(); ++v) {
      const local::Verdict clean = truth[a][v];
      const local::Verdict perturbed = faulty.verdicts[a][v];
      row.sync_yes += clean == local::Verdict::yes ? 1 : 0;
      row.faulty_yes += perturbed == local::Verdict::yes ? 1 : 0;
      row.agree_nodes += perturbed == clean ? 1 : 0;
    }
    out.panel.push_back(std::move(row));
  }
  out.stats = faulty.stats;
  return out;
}

}  // namespace locald::gen
