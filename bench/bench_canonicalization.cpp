// Measures the two-tier canonicalization engine against the pre-PR kernel.
//
// The baseline below is a faithful copy of the original
// graph/isomorphism.cpp search: per-round std::map colour refinement,
// individualization over the FIRST non-singleton class, no automorphism
// discovery, no orbit pruning, no bulk census. It is kept here — in the
// bench only — so the speedup on canonicalization-bound cells is measured
// against the real predecessor rather than asserted. The acceptance gate
// for the engine PR is >= 3x on a canonicalization-bound cell; symmetric
// cells (stars, hypercube balls) improve by orders of magnitude because
// the baseline search is factorial in interchangeable-leaf count.
#include <chrono>
#include <functional>
#include <iostream>
#include <map>
#include <unordered_set>

#include "core/locald.h"

using namespace locald;

namespace legacy {

using graph::CsrGraph;
using graph::NodeId;
using Coloring = std::vector<int>;

void refine(const CsrGraph& g, Coloring& color) {
  const std::size_t n = color.size();
  if (n == 0) return;
  for (;;) {
    using Key = std::pair<int, std::vector<int>>;
    std::vector<Key> keys(n);
    for (std::size_t v = 0; v < n; ++v) {
      std::vector<int> around;
      around.reserve(g.neighbors(static_cast<NodeId>(v)).size());
      for (NodeId w : g.neighbors(static_cast<NodeId>(v))) {
        around.push_back(color[static_cast<std::size_t>(w)]);
      }
      std::sort(around.begin(), around.end());
      keys[v] = {color[v], std::move(around)};
    }
    std::map<Key, int> rank;
    for (const Key& k : keys) rank.emplace(k, 0);
    int next = 0;
    for (auto& [k, r] : rank) r = next++;
    bool changed = false;
    for (std::size_t v = 0; v < n; ++v) {
      const int c = rank[keys[v]];
      if (c != color[v]) changed = true;
      color[v] = c;
    }
    if (!changed) return;
  }
}

std::vector<NodeId> first_non_singleton_class(const Coloring& color) {
  std::map<int, std::vector<NodeId>> classes;
  for (std::size_t v = 0; v < color.size(); ++v) {
    classes[color[v]].push_back(static_cast<NodeId>(v));
  }
  for (const auto& [c, members] : classes) {
    if (members.size() > 1) return members;
  }
  return {};
}

std::string encode_discrete(const CsrGraph& g,
                            const std::vector<std::string>& payloads,
                            const Coloring& color) {
  const std::size_t n = color.size();
  std::vector<NodeId> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[static_cast<std::size_t>(color[v])] = static_cast<NodeId>(v);
  }
  std::vector<int> position(n);
  for (std::size_t i = 0; i < n; ++i) {
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  std::string enc = "n=" + std::to_string(n) + ";";
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = order[i];
    const std::string& p = payloads[static_cast<std::size_t>(v)];
    enc += 'L';
    enc += std::to_string(p.size());
    enc += ':';
    enc += p;
    enc += "|A";
    std::vector<int> around;
    for (NodeId w : g.neighbors(v)) {
      const int pw = position[static_cast<std::size_t>(w)];
      if (pw < static_cast<int>(i)) around.push_back(pw);
    }
    std::sort(around.begin(), around.end());
    for (int a : around) enc += std::to_string(a) + ",";
    enc += ";";
  }
  return enc;
}

struct SearchState {
  const CsrGraph* g = nullptr;
  const std::vector<std::string>* payloads = nullptr;
  std::string best;
  bool has_best = false;
};

void search(SearchState& st, Coloring color) {
  refine(*st.g, color);
  const std::vector<NodeId> cell = first_non_singleton_class(color);
  if (cell.empty()) {
    std::string enc = encode_discrete(*st.g, *st.payloads, color);
    if (!st.has_best || enc < st.best) {
      st.best = std::move(enc);
      st.has_best = true;
    }
    return;
  }
  for (NodeId v : cell) {
    Coloring child = color;
    for (int& c : child) c *= 2;
    child[static_cast<std::size_t>(v)] -= 1;
    search(st, std::move(child));
  }
}

std::string canonical_encoding(const CsrGraph& g,
                               const std::vector<std::string>& payloads) {
  std::map<std::string, int> payload_rank;
  for (const auto& p : payloads) payload_rank.emplace(p, 0);
  int next = 0;
  for (auto& [p, r] : payload_rank) r = next++;
  Coloring color(payloads.size());
  for (std::size_t v = 0; v < payloads.size(); ++v) {
    color[v] = payload_rank[payloads[v]];
  }
  SearchState st;
  st.g = &g;
  st.payloads = &payloads;
  search(st, std::move(color));
  return g.node_count() == 0 ? "n=0;" : st.best;
}

// The pre-PR census: one independent canonical_form per ball, no dedup.
std::size_t census_classes(const CsrGraph& host, int radius) {
  std::unordered_set<std::string> classes;
  for (NodeId v = 0; v < host.node_count(); ++v) {
    const auto members = graph::nodes_within(host, v, radius);
    auto sub = graph::induced_subgraph(host, members);
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < sub.to_parent.size(); ++i) {
      payloads.emplace_back(
          static_cast<NodeId>(i) == sub.from_parent.at(v) ? "C" : "N");
    }
    classes.insert(canonical_encoding(sub.graph, payloads));
  }
  return classes.size();
}

}  // namespace legacy

namespace {

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Median-of-5 to keep the tiny cells off timer noise.
double measured_ms(const std::function<void()>& fn) {
  std::vector<double> runs;
  for (int i = 0; i < 5; ++i) runs.push_back(wall_ms(fn));
  std::sort(runs.begin(), runs.end());
  return runs[2];
}

}  // namespace

int main() {
  std::cout << "=== canonicalization engine vs pre-PR kernel ===\n\n";
  bool gate_met = false;

  // Single-graph canonical_form, legacy-feasible shapes. star:8 is the
  // cliff edge the old workload pre-check banned (k >= 7 leaves => k!
  // legacy search leaves); Q4 and K_{6,6} branch via orbit discovery.
  TextTable single({"input", "legacy(ms)", "engine(ms)", "speedup"});
  struct Shape {
    std::string name;
    graph::CsrGraph g;
  };
  std::vector<Shape> shapes;
  shapes.push_back(
      {"random n=24 m=40", graph::make_random_connected(24, 17, 5)});
  shapes.push_back({"Q4 (16 nodes)", graph::make_hypercube(4)});
  shapes.push_back({"K_{6,6}", graph::make_complete_bipartite(6, 6)});
  shapes.push_back({"star k=8", graph::make_star(8)});
  for (const Shape& shape : shapes) {
    const std::vector<std::string> payloads(
        static_cast<std::size_t>(shape.g.node_count()));
    std::string legacy_enc;
    std::string engine_enc;
    const double legacy_ms = measured_ms(
        [&] { legacy_enc = legacy::canonical_encoding(shape.g, payloads); });
    const double engine_ms = measured_ms(
        [&] { engine_enc = graph::canonical_form(shape.g, payloads).encoding; });
    // Both kernels minimize over leaf encodings of the same refinement
    // family; equal bytes double as a correctness cross-check.
    const double speedup = legacy_ms / engine_ms;
    gate_met = gate_met || speedup >= 3.0;
    single.add_row({shape.name + (legacy_enc == engine_enc ? "" : " (DIVERGED)"),
                    fixed(legacy_ms, 3), fixed(engine_ms, 3),
                    fixed(speedup, 1)});
  }
  std::cout << "canonical_form, one graph at a time:\n"
            << single.render() << '\n';

  // Canonicalization-bound census cells (the `locald bench --canon` grid):
  // legacy = independent per-ball searches, engine = the bulk census with
  // raw dedup + orbit pruning. Q6 balls are stars with 6 interchangeable
  // leaves — 720 legacy leaves per ball, 64 balls.
  TextTable census({"cell", "balls", "legacy(ms)", "engine(ms)", "speedup",
                    "classes"});
  struct Cell {
    std::string name;
    graph::CsrGraph g;
  };
  std::vector<Cell> cells;
  cells.push_back({"hypercube:dims=6", graph::make_hypercube(6)});
  cells.push_back({"complete-bipartite 6x6", graph::make_complete_bipartite(6, 6)});
  cells.push_back({"cycle n=256", graph::make_cycle(256)});
  cells.push_back({"caterpillar 32x5", graph::make_caterpillar(32, 5)});
  for (const Cell& cell : cells) {
    std::size_t legacy_classes = 0;
    graph::BallCensusResult engine_out;
    const double legacy_ms =
        measured_ms([&] { legacy_classes = legacy::census_classes(cell.g, 1); });
    const double engine_ms = measured_ms([&] {
      engine_out = graph::canonical_census(
          cell.g,
          std::vector<std::string>(static_cast<std::size_t>(cell.g.node_count())),
          1);
    });
    const double speedup = legacy_ms / engine_ms;
    gate_met = gate_met || speedup >= 3.0;
    const bool agree =
        legacy_classes == static_cast<std::size_t>(engine_out.distinct);
    census.add_row({cell.name + (agree ? "" : " (DIVERGED)"),
                    cat(cell.g.node_count()), fixed(legacy_ms, 3),
                    fixed(engine_ms, 3), fixed(speedup, 1),
                    cat(engine_out.distinct)});
  }
  std::cout << "radius-1 ball census (the bench --canon cells):\n"
            << census.render() << '\n';

  std::cout << (gate_met
                    ? "gate: >= 3x on a canonicalization-bound cell: MET\n"
                    : "gate: >= 3x on a canonicalization-bound cell: NOT MET\n");
  return gate_met ? 0 : 1;
}
