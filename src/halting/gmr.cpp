#include "halting/gmr.h"

#include <algorithm>
#include <map>

#include "graph/pyramid.h"
#include "support/format.h"
#include "tm/run.h"

namespace locald::halting {

using graph::PyramidIndexer;
using graph::attach_pyramid;

namespace {

constexpr std::size_t kHeaderFields = 6;  // label fields before M

}  // namespace

local::Label cell_label(const tm::TuringMachine& m, int r, int x, int y,
                        int code, std::int64_t role) {
  std::vector<std::int64_t> fields{kGmrTag, r, role, x % 3, y % 3, code};
  const auto enc = m.encode();
  fields.insert(fields.end(), enc.begin(), enc.end());
  return local::Label(std::move(fields));
}

local::Label pyramid_label(const tm::TuringMachine& m, int r) {
  std::vector<std::int64_t> fields{kGmrTag, r, kRolePyramid, 0, 0, 0};
  const auto enc = m.encode();
  fields.insert(fields.end(), enc.begin(), enc.end());
  return local::Label(std::move(fields));
}

std::optional<DecodedLabel> decode_header(const local::Label& l) {
  const auto& f = l.fields();
  if (f.size() < 8 || f[0] != kGmrTag) {
    return std::nullopt;
  }
  DecodedLabel out;
  out.r = static_cast<int>(f[1]);
  out.role = f[2];
  out.xm3 = static_cast<int>(f[3]);
  out.ym3 = static_cast<int>(f[4]);
  out.code = static_cast<int>(f[5]);
  if (out.r < 0 ||
      (out.role != kRoleTableCell && out.role != kRolePyramid &&
       out.role != kRoleFragmentCell) ||
      out.xm3 < 0 || out.xm3 > 2 || out.ym3 < 0 || out.ym3 > 2) {
    return std::nullopt;
  }
  return out;
}

std::optional<DecodedLabel> decode_label(const local::Label& l) {
  auto out = decode_header(l);
  if (out.has_value()) {
    out->machine_encoding.assign(l.fields().begin() + kHeaderFields,
                                 l.fields().end());
  }
  return out;
}

bool same_machine(const local::Label& a, const local::Label& b) {
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  return fa.size() == fb.size() && fa.size() >= kHeaderFields &&
         std::equal(fa.begin() + kHeaderFields, fa.end(),
                    fb.begin() + kHeaderFields);
}

GmrInstance build_gmr(const GmrParams& params) {
  const tm::TuringMachine& m = params.machine;
  LOCALD_CHECK(params.fragment_size >= 3, "fragment size must be >= 3");
  if (params.pyramidal) {
    LOCALD_CHECK((params.fragment_size & (params.fragment_size - 1)) == 0,
                 "pyramidal fragments need a power-of-two size");
  }
  const tm::ExecutionTable table = tm::ExecutionTable::build_padded_pow2(
      m, params.step_budget, std::max(4, params.fragment_size));
  const tm::FragmentCollection collection = tm::build_fragment_collection(
      m, params.fragment_size, params.policy, {&table});
  return assemble_gmr(m, params.r, table, collection, params.pyramidal);
}

GmrInstance assemble_gmr(const tm::TuringMachine& m, int r,
                         const tm::ExecutionTable& table,
                         const tm::FragmentCollection& collection,
                         bool pyramidal) {
  GmrInstance out;
  out.table_side = table.width();
  out.halting_step = table.halting_step().value_or(-1);
  out.fragment_count = collection.fragments.size();
  out.exact_fragment_count = collection.exact_count;
  out.fragments_exhaustive = collection.exhaustive;

  graph::GraphBuilder g;
  std::vector<local::Label> labels;
  // Table cells: id = y * side + x.
  const int side = table.width();
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      g.add_node();
      labels.push_back(cell_label(m, r, x, y, table.cell(x, y)));
    }
  }
  auto table_id = [side](int x, int y) {
    return static_cast<graph::NodeId>(y * side + x);
  };
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      if (x + 1 < side) {
        g.add_edge(table_id(x, y), table_id(x + 1, y));
      }
      if (y + 1 < side) {
        g.add_edge(table_id(x, y), table_id(x, y + 1));
      }
    }
  }
  out.pivot = table_id(0, 0);

  if (pyramidal) {
    int h = 0;
    while ((1 << h) < side) ++h;
    const PyramidIndexer indexer(h);
    const graph::NodeId first =
        attach_pyramid(g, indexer, [&](int x, int y) { return table_id(x, y); });
    for (graph::NodeId v = first; v < g.node_count(); ++v) {
      labels.push_back(pyramid_label(m, r));
    }
  }

  // Fragments: k x k grids, glued borders wired to the pivot.
  const int k = collection.size;
  for (const tm::Fragment& f : collection.fragments) {
    const graph::NodeId base = g.node_count();
    for (int y = 0; y < k; ++y) {
      for (int x = 0; x < k; ++x) {
        g.add_node();
        labels.push_back(
            cell_label(m, r, x, y, f.cell(x, y), kRoleFragmentCell));
      }
    }
    auto frag_id = [base, k](int x, int y) {
      return base + static_cast<graph::NodeId>(y * k + x);
    };
    for (int y = 0; y < k; ++y) {
      for (int x = 0; x < k; ++x) {
        if (x + 1 < k) {
          g.add_edge(frag_id(x, y), frag_id(x + 1, y));
        }
        if (y + 1 < k) {
          g.add_edge(frag_id(x, y), frag_id(x, y + 1));
        }
      }
    }
    if (pyramidal) {
      int fh = 0;
      while ((1 << fh) < k) ++fh;
      const PyramidIndexer indexer(fh);
      const graph::NodeId first = attach_pyramid(
          g, indexer, [&](int x, int y) { return frag_id(x, y); });
      for (graph::NodeId v = first; v < g.node_count(); ++v) {
        labels.push_back(pyramid_label(m, r));
      }
    }
    for (const auto& [x, y] : f.glued_border_cells()) {
      g.add_edge(out.pivot, frag_id(x, y));
    }
  }

  out.graph = local::LabeledGraph(g.build(), std::move(labels));
  return out;
}

std::unique_ptr<local::Property> property_gmr_outputs0(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget) {
  return std::make_unique<local::LambdaProperty>(
      cat("sec3-P(k=", fragment_size, pyramidal ? ",pyramidal" : "", ")"),
      [fragment_size, policy, pyramidal,
       step_budget](const local::LabeledGraph& g) {
        if (g.node_count() == 0) {
          return false;
        }
        const auto decoded = decode_label(g.label(0));
        if (!decoded.has_value()) {
          return false;
        }
        GmrInstance expected;
        try {
          tm::TuringMachine m =
              tm::TuringMachine::decode(decoded->machine_encoding);
          const tm::RunOutcome run = tm::run_machine(m, step_budget);
          if (!run.halted || run.output != 0) {
            return false;
          }
          GmrParams params{std::move(m), decoded->r, fragment_size, policy,
                           pyramidal, step_budget};
          expected = build_gmr(params);
        } catch (const Error&) {
          return false;
        }
        if (expected.graph.node_count() != g.node_count() ||
            expected.graph.graph().edge_count() != g.graph().edge_count()) {
          return false;
        }
        auto payload_sorted = [](const local::LabeledGraph& lg) {
          auto p = lg.label_payloads();
          std::sort(p.begin(), p.end());
          return p;
        };
        if (payload_sorted(expected.graph) != payload_sorted(g)) {
          return false;
        }
        // Degree multiset as an additional structural invariant.
        auto degrees = [](const local::LabeledGraph& lg) {
          std::vector<graph::NodeId> d;
          for (graph::NodeId v = 0; v < lg.node_count(); ++v) {
            d.push_back(lg.graph().degree(v));
          }
          std::sort(d.begin(), d.end());
          return d;
        };
        return degrees(expected.graph) == degrees(g);
      });
}

}  // namespace locald::halting
