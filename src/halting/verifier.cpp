#include "halting/verifier.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "support/format.h"
#include "tm/run.h"

namespace locald::halting {

namespace {

using local::BallView;
using local::Verdict;

enum class Relation { east, west, south, north, glue, invalid };

// Relation of the edge a->b. Edges between different grids (table vs
// fragment) are glue edges; edges within one grid must match a (mod 3)
// orientation pattern, otherwise the instance is malformed.
Relation classify(const DecodedLabel& a, const DecodedLabel& b) {
  if (a.role != b.role) {
    return Relation::glue;
  }
  if (a.ym3 == b.ym3) {
    if ((a.xm3 + 1) % 3 == b.xm3) return Relation::east;
    if ((b.xm3 + 1) % 3 == a.xm3) return Relation::west;
  }
  if (a.xm3 == b.xm3) {
    if ((a.ym3 + 1) % 3 == b.ym3) return Relation::south;
    if ((b.ym3 + 1) % 3 == a.ym3) return Relation::north;
  }
  return Relation::invalid;
}

// What the check of a centre c needs to know about a node x of N[c]. Every
// field depends on x's radius-1 neighbourhood only, so a host graph computes
// it once per node and each centre around x reads it.
struct NodeFact {
  std::optional<DecodedLabel> header;  // x's own; M is not copied
  // x decodes and every neighbour decodes to x's (M, r).
  bool matched = false;
  // x or a neighbour has the pyramid role (meaningful when matched).
  bool pyramid_near = false;
  // Glue edges at x: cell neighbours of another grid (when matched).
  int glue_degree = 0;
};

template <class Labels>
NodeFact node_fact(const graph::CsrSpan& g, const Labels& label,
                   graph::NodeId x) {
  NodeFact fact;
  const local::Label& raw = label(x);
  fact.header = decode_header(raw);
  if (!fact.header.has_value()) {
    return fact;
  }
  const DecodedLabel& hx = *fact.header;
  fact.pyramid_near = hx.role == kRolePyramid;
  for (graph::NodeId w : g.neighbors(x)) {
    const local::Label& raw_w = label(w);
    const auto hw = decode_header(raw_w);
    if (!hw.has_value() || hw->r != hx.r || !same_machine(raw_w, raw)) {
      return fact;
    }
    fact.pyramid_near = fact.pyramid_near || hw->role == kRolePyramid;
    if (hx.is_cell() && hw->is_cell() &&
        classify(hx, *hw) == Relation::glue) {
      ++fact.glue_degree;
    }
  }
  fact.matched = true;
  return fact;
}

// dist(u, w) <= 2: equal, adjacent or sharing a neighbour. Rows are sorted,
// so each probe is a binary search in the longer row.
bool within_two(const graph::CsrSpan& g, graph::NodeId u, graph::NodeId w) {
  graph::NeighborSpan shorter = g.neighbors(u);
  graph::NeighborSpan longer = g.neighbors(w);
  if (shorter.size() > longer.size()) {
    std::swap(shorter, longer);
    std::swap(u, w);
  }
  // `longer` is w's row.
  const auto in_longer = [&](graph::NodeId x) {
    return std::binary_search(longer.begin(), longer.end(), x);
  };
  return u == w || in_longer(u) ||
         std::any_of(shorter.begin(), shorter.end(), in_longer);
}

// The check of centre c reads B(c, 2) through a patch:
//  - neighbors(u): u's neighbours, possibly some outside B(c, 2);
//  - contains(w): whether such a neighbour is a member, so an edge between
//    two distance-2 members counts exactly as in the extracted ball;
//  - header(u): u's decoded header, or null (never for a member once
//    step 1 has passed);
//  - fact(x) for x in N[c].
// BallPatch reads an extracted ball: it is the semantic definition.
// HostPatch reads the host graph and facts computed once per host node.
class BallPatch {
 public:
  explicit BallPatch(const BallView& ball) : ball_(ball) {
    headers_.reserve(static_cast<std::size_t>(ball.node_count()));
    for (graph::NodeId v = 0; v < ball.node_count(); ++v) {
      headers_.push_back(decode_header(ball.label(v)));
    }
  }

  graph::NodeId center() const { return ball_.center; }
  graph::NeighborSpan neighbors(graph::NodeId u) const {
    return ball_.g.neighbors(u);
  }
  bool contains(graph::NodeId) const { return true; }
  const DecodedLabel* header(graph::NodeId u) const {
    const auto& h = headers_[static_cast<std::size_t>(u)];
    return h.has_value() ? &*h : nullptr;
  }
  NodeFact fact(graph::NodeId x) const {
    return node_fact(
        ball_.g,
        [this](graph::NodeId v) -> const local::Label& {
          return ball_.label(v);
        },
        x);
  }

 private:
  const BallView& ball_;
  std::vector<std::optional<DecodedLabel>> headers_;
};

class HostPatch {
 public:
  HostPatch(const graph::CsrSpan& g, const std::vector<NodeFact>& facts,
            graph::NodeId c)
      : g_(g), facts_(facts), c_(c) {}

  graph::NodeId center() const { return c_; }
  graph::NeighborSpan neighbors(graph::NodeId u) const {
    return g_.neighbors(u);
  }
  bool contains(graph::NodeId w) const { return within_two(g_, c_, w); }
  const DecodedLabel* header(graph::NodeId u) const {
    const auto& h = facts_[static_cast<std::size_t>(u)].header;
    return h.has_value() ? &*h : nullptr;
  }
  const NodeFact& fact(graph::NodeId x) const {
    return facts_[static_cast<std::size_t>(x)];
  }

 private:
  const graph::CsrSpan& g_;
  const std::vector<NodeFact>& facts_;
  graph::NodeId c_;
};

// position[v] = (dx, dy) relative to an origin within its grid component
// (only members reachable from the origin via grid edges), and its inverse.
struct Geometry {
  std::map<graph::NodeId, std::pair<int, int>> position;
  std::map<std::pair<int, int>, graph::NodeId> at;
};

// A glue neighbour of the centre and its own glue degree.
struct GluePartner {
  graph::NodeId node = 0;
  int glue_degree = 0;
};

struct MachineCtx {
  tm::TuringMachine machine;
  std::unique_ptr<tm::LocalRules> rules;
  std::set<std::string> fragment_keys;
  int start_code = 0;
  bool valid = false;

  explicit MachineCtx(tm::TuringMachine m) : machine(std::move(m)) {}
};

bool is_cell_code(const tm::TuringMachine& m, int code) {
  return code >= 0 && code < m.cell_code_count();
}

bool is_pivot_like(const MachineCtx& ctx, const DecodedLabel& l) {
  return l.role == kRoleTableCell && l.code == ctx.start_code &&
         l.xm3 == 0 && l.ym3 == 0;
}

// BFS position assignment over grid edges starting from `origin`.
// Returns false on geometric inconsistency.
template <class Patch>
bool assign_positions(const Patch& p, graph::NodeId origin, Geometry& geo) {
  std::vector<graph::NodeId> queue{origin};
  geo.position[origin] = {0, 0};
  geo.at[{0, 0}] = origin;
  std::size_t head = 0;
  while (head < queue.size()) {
    const graph::NodeId u = queue[head++];
    const auto [ux, uy] = geo.position.at(u);
    const DecodedLabel& lu = *p.header(u);
    for (graph::NodeId w : p.neighbors(u)) {
      const DecodedLabel* lw = p.header(w);
      if (lw == nullptr || !lu.is_cell() || !lw->is_cell()) {
        continue;
      }
      const Relation rel = classify(lu, *lw);
      if (rel == Relation::glue || !p.contains(w)) {
        continue;
      }
      if (rel == Relation::invalid) {
        return false;
      }
      int wx = ux;
      int wy = uy;
      switch (rel) {
        case Relation::east: ++wx; break;
        case Relation::west: --wx; break;
        case Relation::south: ++wy; break;
        case Relation::north: --wy; break;
        case Relation::glue:
        case Relation::invalid: break;
      }
      const auto it = geo.position.find(w);
      if (it != geo.position.end()) {
        if (it->second != std::pair{wx, wy}) {
          return false;  // inconsistent geometry
        }
        continue;
      }
      const auto [slot, fresh] = geo.at.emplace(std::pair{wx, wy}, w);
      if (!fresh) {
        return false;  // two cells at one position
      }
      geo.position[w] = {wx, wy};
      queue.push_back(w);
    }
  }
  return true;
}

class GmrVerifier final : public local::LocalAlgorithm {
 public:
  GmrVerifier(int k, tm::FragmentPolicy policy, bool pyramidal,
              long long step_budget)
      : k_(k),
        policy_(policy),
        pyramidal_(pyramidal),
        step_budget_(step_budget) {
    LOCALD_CHECK(k_ >= 3, "fragment size must be >= 3");
  }

  std::string name() const override {
    return cat("verify-G(M,r)(k=", k_, pyramidal_ ? ",pyr" : "", ")");
  }
  int horizon() const override { return 2; }
  bool id_oblivious() const override { return true; }

  Verdict evaluate(const BallView& ball) const override {
    return check(BallPatch(ball),
                 [&] { return context_of(ball.center_label()); });
  }

  // Facts once per host node, then one check per centre; no ball is
  // extracted, not even the pivot's.
  std::optional<std::vector<Verdict>> evaluate_all(
      const local::LabeledGraph& g, exec::ThreadPool* pool) const override {
    const std::size_t n = static_cast<std::size_t>(g.node_count());
    const graph::CsrSpan host = g.graph().span();
    const std::vector<local::Label>& labels = g.labels();
    std::vector<NodeFact> facts(n);
    std::vector<const MachineCtx*> contexts(n, nullptr);
    {
      obs::Span span("gmr-node-facts");
      exec::parallel_for(pool, n, [&](std::size_t x) {
        facts[x] = node_fact(
            host,
            [&labels](graph::NodeId v) -> const local::Label& {
              return labels[static_cast<std::size_t>(v)];
            },
            static_cast<graph::NodeId>(x));
      });
      // Machine contexts of the nodes step 1 may pass. Nodes in id order
      // nearly always carry the previous node's machine, so a run of them
      // shares one memo lookup.
      const local::Label* run_label = nullptr;
      const MachineCtx* run_ctx = nullptr;
      for (std::size_t v = 0; v < n; ++v) {
        if (!facts[v].matched) {
          continue;
        }
        if (run_label == nullptr || !same_machine(labels[v], *run_label)) {
          run_label = &labels[v];
          run_ctx = context_of(*run_label);
        }
        contexts[v] = run_ctx;
      }
    }
    std::vector<Verdict> out(n);
    obs::Span span("gmr-centre-checks");
    exec::parallel_for(pool, n, [&](std::size_t v) {
      out[v] = check(HostPatch(host, facts, static_cast<graph::NodeId>(v)),
                     [&] { return contexts[v]; });
    });
    return out;
  }

 private:
  // `context()` returns the context of the centre's machine (null if it has
  // none); it is asked only once step 1 has passed.
  template <class Patch, class Context>
  Verdict check(const Patch& p, const Context& context) const {
    const graph::NodeId c = p.center();
    // Step 1: every member of B(c, 2) shares (M, r). The ball is connected
    // through BFS-tree edges that each touch N[c], so that holds exactly
    // when every x in N[c] matches all of its neighbours. The same pass
    // collects the mode gate's input and the centre's glue partners.
    const NodeFact& center_fact = p.fact(c);
    if (!center_fact.matched) {
      return Verdict::no;
    }
    const DecodedLabel& center_label = *center_fact.header;
    bool pyramid_near = center_fact.pyramid_near;
    std::vector<GluePartner> glue;
    for (graph::NodeId w : p.neighbors(c)) {
      const NodeFact& f = p.fact(w);
      if (!f.matched) {
        return Verdict::no;
      }
      pyramid_near = pyramid_near || f.pyramid_near;
      if (center_label.is_cell() && f.header->is_cell() &&
          classify(center_label, *f.header) == Relation::glue) {
        glue.push_back({w, f.glue_degree});
      }
    }
    const MachineCtx* ctx = context();
    if (ctx == nullptr || !ctx->valid) {
      return Verdict::no;
    }
    if (center_label.role == kRolePyramid) {
      // Appendix-A mode: pyramid structure is validated by the global
      // oracle; locally only the mode gate applies.
      return pyramidal_ ? Verdict::yes : Verdict::no;
    }
    if (!pyramidal_ && pyramid_near) {
      return Verdict::no;
    }
    Geometry geo;
    if (!assign_positions(p, c, geo)) {
      return Verdict::no;
    }
    const bool no_north = !geo.at.contains({0, -1});
    const bool no_west = !geo.at.contains({-1, 0});
    if (no_north && no_west && is_pivot_like(*ctx, center_label) &&
        glue.size() >= 2) {
      return check_pivot(*ctx, p, glue);
    }
    return check_cell(*ctx, p, geo, glue, center_label);
  }

  template <class Patch>
  static std::optional<int> code_at(const Patch& p, const Geometry& geo,
                                    int dx, int dy) {
    const auto it = geo.at.find({dx, dy});
    if (it == geo.at.end()) {
      return std::nullopt;
    }
    return p.header(it->second)->code;
  }

  template <class Patch>
  Verdict check_cell(const MachineCtx& ctx, const Patch& p,
                     const Geometry& geo, const std::vector<GluePartner>& glue,
                     const DecodedLabel& center) const {
    const tm::LocalRules& rules = *ctx.rules;
    const tm::TuringMachine& m = ctx.machine;
    if (glue.size() > 1) {
      return Verdict::no;  // a border cell is glued to exactly one pivot
    }
    if (glue.size() == 1) {
      if (center.role != kRoleFragmentCell) {
        return Verdict::no;  // only fragment borders glue to the pivot
      }
      if (!is_pivot_like(ctx, *p.header(glue[0].node)) ||
          glue[0].glue_degree < 2) {
        return Verdict::no;
      }
    }
    const bool glued = !glue.empty();
    const auto n = code_at(p, geo, 0, -1);
    const auto nw = code_at(p, geo, -1, -1);
    const auto ne = code_at(p, geo, 1, -1);
    const auto w = code_at(p, geo, -1, 0);
    const auto e = code_at(p, geo, 1, 0);
    // The window rules read only codes of M's cells; any other code is
    // garbage, never part of a member.
    for (const std::optional<int>& code :
         {std::optional<int>(center.code), n, nw, ne, w, e}) {
      if (code.has_value() && !is_cell_code(m, *code)) {
        return Verdict::no;
      }
    }
    // Rectangularity: a missing upper corner forces the matching side off.
    if (n.has_value()) {
      if (!nw.has_value() && w.has_value()) return Verdict::no;
      if (!ne.has_value() && e.has_value()) return Verdict::no;
      if (!nw.has_value() && !ne.has_value()) return Verdict::no;  // k >= 3
      if (nw.has_value() && ne.has_value()) {
        const auto expect = rules.next_cell(*nw, *n, *ne);
        if (!expect.has_value() || *expect != center.code) {
          return Verdict::no;
        }
      } else if (!nw.has_value()) {
        if (glued) {
          const auto allowed = rules.allowed_left_boundary(*n, *ne);
          if (!std::binary_search(allowed.begin(), allowed.end(),
                                  center.code)) {
            return Verdict::no;
          }
        } else {
          const auto expect = rules.next_cell_at_wall(*n, *ne);
          if (!expect.has_value() || *expect != center.code) {
            return Verdict::no;
          }
        }
      } else {  // ne missing
        if (glued) {
          const auto allowed = rules.allowed_right_boundary(*nw, *n);
          if (!std::binary_search(allowed.begin(), allowed.end(),
                                  center.code)) {
            return Verdict::no;
          }
        } else {
          const auto expect = rules.next_cell_natural_right(*nw, *n);
          if (!expect.has_value() || *expect != center.code) {
            return Verdict::no;
          }
        }
      }
    } else {
      // No row above: fragment top row (glued) or table row 0.
      if (!glued) {
        if (center.role != kRoleTableCell || center.ym3 != 0) {
          return Verdict::no;
        }
        const bool is_start = center.code == ctx.start_code &&
                              center.xm3 == 0 && !w.has_value();
        if (!is_start && center.code != m.plain_cell(0)) {
          return Verdict::no;
        }
      }
    }
    // No row below: natural bottom / frozen table bottom must be head-free
    // (halting heads allowed) unless the cell is glued.
    if (!geo.at.contains({0, 1}) && !glued) {
      if (m.cell_has_head(center.code) &&
          !m.is_halting(m.cell_state(center.code))) {
        return Verdict::no;
      }
    }
    return Verdict::yes;
  }

  template <class Patch>
  Verdict check_pivot(const MachineCtx& ctx, const Patch& p,
                      const std::vector<GluePartner>& glue) const {
    std::set<graph::NodeId> glue_set;
    for (const GluePartner& partner : glue) {
      glue_set.insert(partner.node);
    }
    // Components of glued border cells, connected via grid edges among
    // themselves.
    std::map<graph::NodeId, int> component;
    int comp_count = 0;
    for (const graph::NodeId s : glue_set) {
      if (component.contains(s)) {
        continue;
      }
      const int c = comp_count++;
      std::vector<graph::NodeId> queue{s};
      component[s] = c;
      std::size_t head = 0;
      while (head < queue.size()) {
        const graph::NodeId u = queue[head++];
        const DecodedLabel& lu = *p.header(u);
        for (graph::NodeId x : p.neighbors(u)) {
          if (!glue_set.contains(x) || component.contains(x)) {
            continue;
          }
          if (classify(lu, *p.header(x)) == Relation::glue) {
            continue;
          }
          component[x] = c;
          queue.push_back(x);
        }
      }
    }
    // Each component's members in ascending node order.
    std::vector<std::vector<graph::NodeId>> members(
        static_cast<std::size_t>(comp_count));
    for (const auto& [v, c] : component) {
      members[static_cast<std::size_t>(c)].push_back(v);
    }
    std::set<std::string> seen;
    for (const std::vector<graph::NodeId>& comp : members) {
      const auto key = reconstruct_component(ctx, p, comp);
      if (!key.has_value()) {
        return Verdict::no;
      }
      seen.insert(*key);
    }
    // Lemma-2 comparison: the pivot must see exactly C(M, r).
    return seen == ctx.fragment_keys ? Verdict::yes : Verdict::no;
  }

  // Rebuilds one fragment from its glued border component; returns its key.
  template <class Patch>
  std::optional<std::string> reconstruct_component(
      const MachineCtx& ctx, const Patch& p,
      const std::vector<graph::NodeId>& members) const {
    // Positions relative to the component's own origin.
    Geometry sub;
    if (!assign_positions(p, members[0], sub)) {
      return std::nullopt;
    }
    // Restrict to the component members and normalize.
    std::map<std::pair<int, int>, int> codes;
    int min_x = 1 << 20;
    int min_y = 1 << 20;
    for (graph::NodeId v : members) {
      const auto it = sub.position.find(v);
      if (it == sub.position.end()) {
        return std::nullopt;  // members must be grid-connected
      }
      min_x = std::min(min_x, it->second.first);
      min_y = std::min(min_y, it->second.second);
    }
    for (graph::NodeId v : members) {
      const auto [x, y] = sub.position.at(v);
      const int code = p.header(v)->code;
      if (!is_cell_code(ctx.machine, code)) {
        return std::nullopt;
      }
      codes[{x - min_x, y - min_y}] = code;
    }
    // Shape: full top row, optional full side columns, optional bottom row.
    const int k = k_;
    std::vector<int> top(static_cast<std::size_t>(k));
    for (int x = 0; x < k; ++x) {
      const auto it = codes.find({x, 0});
      if (it == codes.end()) {
        return std::nullopt;
      }
      top[static_cast<std::size_t>(x)] = it->second;
    }
    const bool left = codes.contains({0, 1});
    const bool right = codes.contains({k - 1, 1});
    bool bottom = false;
    for (int x = 1; x + 1 < k; ++x) {
      bottom |= codes.contains({x, k - 1});
    }
    std::optional<std::vector<int>> left_col;
    std::optional<std::vector<int>> right_col;
    std::optional<std::vector<int>> bottom_row;
    std::size_t expected = static_cast<std::size_t>(k);
    if (left) {
      left_col.emplace();
      for (int y = 0; y < k; ++y) {
        const auto it = codes.find({0, y});
        if (it == codes.end()) {
          return std::nullopt;
        }
        left_col->push_back(it->second);
      }
      expected += static_cast<std::size_t>(k - 1);
    }
    if (right) {
      right_col.emplace();
      for (int y = 0; y < k; ++y) {
        const auto it = codes.find({k - 1, y});
        if (it == codes.end()) {
          return std::nullopt;
        }
        right_col->push_back(it->second);
      }
      expected += static_cast<std::size_t>(k - 1);
    }
    if (bottom) {
      if (!left && !right) {
        return std::nullopt;  // connectivity fix guarantees a side
      }
      bottom_row.emplace();
      for (int x = 0; x < k; ++x) {
        const auto it = codes.find({x, k - 1});
        if (it == codes.end()) {
          return std::nullopt;
        }
        bottom_row->push_back(it->second);
      }
      // Bottom adds its k cells minus the corners already counted in the
      // side columns.
      expected += static_cast<std::size_t>(k) - (left ? 1 : 0) -
                  (right ? 1 : 0);
    }
    if (codes.size() != expected) {
      return std::nullopt;  // stray cells outside the border shape
    }
    const auto fragment = tm::reconstruct_fragment(
        *ctx.rules, k, k, top, left_col, right_col, bottom_row);
    if (!fragment.has_value()) {
      return std::nullopt;
    }
    return fragment->key();
  }

  // The context of the machine named in `center`; null if it names none.
  const MachineCtx* context_of(const local::Label& center) const {
    const auto decoded = decode_label(center);
    return decoded.has_value() ? context(decoded->machine_encoding) : nullptr;
  }

  // Pool threads evaluate balls concurrently, so the memo is guarded: the
  // lock covers only the map lookup, and each machine's context is built
  // exactly once (std::call_once) and is read-only afterwards. Other
  // machines' lookups never wait on a build.
  const MachineCtx* context(const std::vector<std::int64_t>& enc) const {
    ContextSlot* slot = nullptr;
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      slot = &cache_[enc];
    }
    std::call_once(slot->built, [&] { slot->ctx = build_context(enc); });
    return slot->ctx.get();
  }

  std::unique_ptr<MachineCtx> build_context(
      const std::vector<std::int64_t>& enc) const {
    std::unique_ptr<MachineCtx> ctx;
    try {
      tm::TuringMachine m = tm::TuringMachine::decode(enc);
      ctx = std::make_unique<MachineCtx>(std::move(m));
      ctx->rules = std::make_unique<tm::LocalRules>(ctx->machine);
      ctx->start_code =
          ctx->machine.head_cell(tm::TuringMachine::kStartState, 0);
      const tm::RunOutcome run =
          tm::run_machine(ctx->machine, step_budget_);
      if (run.halted) {
        const tm::ExecutionTable table = tm::ExecutionTable::build_padded_pow2(
            ctx->machine, step_budget_, std::max(4, k_));
        const tm::FragmentCollection col = tm::build_fragment_collection(
            ctx->machine, k_, policy_, {&table});
        for (const tm::Fragment& f : col.fragments) {
          ctx->fragment_keys.insert(f.key());
        }
        ctx->valid = true;
      }
    } catch (const Error&) {
      ctx = nullptr;
    }
    return ctx;
  }

  // One memo entry; std::map nodes never move, so a slot's address is
  // stable while other threads insert.
  struct ContextSlot {
    std::once_flag built;
    std::unique_ptr<MachineCtx> ctx;  // null: undecodable machine
  };

  int k_;
  tm::FragmentPolicy policy_;
  bool pyramidal_;
  long long step_budget_;
  mutable std::mutex cache_mu_;
  mutable std::map<std::vector<std::int64_t>, ContextSlot> cache_;
};

}  // namespace

std::unique_ptr<local::LocalAlgorithm> make_gmr_verifier(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget) {
  return std::make_unique<GmrVerifier>(fragment_size, policy, pyramidal,
                                       step_budget);
}

}  // namespace locald::halting
