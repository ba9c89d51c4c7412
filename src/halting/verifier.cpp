#include "halting/verifier.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>

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

// position[v] = (dx, dy) relative to an origin within its grid component
// (only nodes reachable from the origin via grid edges), and its inverse.
struct Geometry {
  std::map<graph::NodeId, std::pair<int, int>> position;
  std::map<std::pair<int, int>, graph::NodeId> at;
};

struct ParsedBall {
  // Header-only labels (machine_encoding empty): step 1 has checked that
  // every node carries the centre's (M, r).
  std::vector<DecodedLabel> labels;
  Geometry geo;  // around the centre
  std::vector<graph::NodeId> glue_partners_of_center;
};

struct MachineCtx {
  tm::TuringMachine machine;
  std::unique_ptr<tm::LocalRules> rules;
  std::set<std::string> fragment_keys;
  int start_code = 0;
  bool valid = false;

  explicit MachineCtx(tm::TuringMachine m) : machine(std::move(m)) {}
};

bool is_pivot_like(const MachineCtx& ctx, const DecodedLabel& l) {
  return l.role == kRoleTableCell && l.code == ctx.start_code &&
         l.xm3 == 0 && l.ym3 == 0;
}

// Glue degree of `v` within the ball (edges with no valid grid relation).
int glue_degree(const BallView& ball, const ParsedBall& parsed, graph::NodeId v) {
  int count = 0;
  for (graph::NodeId w : ball.g.neighbors(v)) {
    const auto& lv = parsed.labels[static_cast<std::size_t>(v)];
    const auto& lw = parsed.labels[static_cast<std::size_t>(w)];
    if (!lv.is_cell() || !lw.is_cell()) {
      continue;
    }
    if (classify(lv, lw) == Relation::glue) {
      ++count;
    }
  }
  return count;
}

// BFS position assignment over grid edges starting from `origin`.
// Returns false on geometric inconsistency.
bool assign_positions(const BallView& ball,
                      const std::vector<DecodedLabel>& labels,
                      graph::NodeId origin, Geometry& geo) {
  std::vector<graph::NodeId> queue{origin};
  geo.position[origin] = {0, 0};
  geo.at[{0, 0}] = origin;
  std::size_t head = 0;
  while (head < queue.size()) {
    const graph::NodeId u = queue[head++];
    const auto [ux, uy] = geo.position.at(u);
    const auto& lu = labels[static_cast<std::size_t>(u)];
    for (graph::NodeId w : ball.g.neighbors(u)) {
      const auto& lw = labels[static_cast<std::size_t>(w)];
      if (!lu.is_cell() || !lw.is_cell()) {
        continue;
      }
      const Relation rel = classify(lu, lw);
      if (rel == Relation::invalid) {
        return false;
      }
      if (rel == Relation::glue) {
        continue;
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
    // Step 1: everyone shares (M, r). Only the centre's machine is
    // copied out; every other label is checked in place against it.
    const local::Label& center_raw = ball.center_label();
    const auto center = decode_label(center_raw);
    if (!center.has_value()) {
      return Verdict::no;
    }
    ParsedBall parsed;
    parsed.labels.reserve(static_cast<std::size_t>(ball.node_count()));
    for (graph::NodeId v = 0; v < ball.node_count(); ++v) {
      const local::Label& raw = ball.label(v);
      const auto d = decode_header(raw);
      if (!d.has_value() || d->r != center->r ||
          !same_machine(raw, center_raw)) {
        return Verdict::no;
      }
      parsed.labels.push_back(*d);
    }
    const MachineCtx* ctx = context(center->machine_encoding);
    if (ctx == nullptr || !ctx->valid) {
      return Verdict::no;
    }
    const auto& center_label =
        parsed.labels[static_cast<std::size_t>(ball.center)];
    if (center_label.role == kRolePyramid) {
      // Appendix-A mode: pyramid structure is validated by the global
      // oracle; locally only the mode gate applies.
      return pyramidal_ ? Verdict::yes : Verdict::no;
    }
    if (!pyramidal_) {
      for (const auto& l : parsed.labels) {
        if (l.role == kRolePyramid) {
          return Verdict::no;
        }
      }
    }
    if (!assign_positions(ball, parsed.labels, ball.center, parsed.geo)) {
      return Verdict::no;
    }
    for (graph::NodeId w : ball.g.neighbors(ball.center)) {
      const auto& lw = parsed.labels[static_cast<std::size_t>(w)];
      if (center_label.is_cell() && lw.is_cell() &&
          classify(center_label, lw) == Relation::glue) {
        parsed.glue_partners_of_center.push_back(w);
      }
    }
    const bool no_north = !parsed.geo.at.contains({0, -1});
    const bool no_west = !parsed.geo.at.contains({-1, 0});
    if (no_north && no_west && is_pivot_like(*ctx, center_label) &&
        parsed.glue_partners_of_center.size() >= 2) {
      return check_pivot(*ctx, ball, parsed);
    }
    return check_cell(*ctx, ball, parsed, center_label);
  }

 private:
  std::optional<int> code_at(const ParsedBall& parsed, int dx, int dy) const {
    const auto it = parsed.geo.at.find({dx, dy});
    if (it == parsed.geo.at.end()) {
      return std::nullopt;
    }
    return parsed.labels[static_cast<std::size_t>(it->second)].code;
  }

  Verdict check_cell(const MachineCtx& ctx, const BallView& ball,
                     const ParsedBall& parsed,
                     const DecodedLabel& center) const {
    const tm::LocalRules& rules = *ctx.rules;
    const tm::TuringMachine& m = ctx.machine;
    const auto& glue = parsed.glue_partners_of_center;
    if (glue.size() > 1) {
      return Verdict::no;  // a border cell is glued to exactly one pivot
    }
    if (glue.size() == 1) {
      if (center.role != kRoleFragmentCell) {
        return Verdict::no;  // only fragment borders glue to the pivot
      }
      const auto& partner = parsed.labels[static_cast<std::size_t>(glue[0])];
      if (!is_pivot_like(ctx, partner) ||
          glue_degree(ball, parsed, glue[0]) < 2) {
        return Verdict::no;
      }
    }
    const bool glued = !glue.empty();
    const auto n = code_at(parsed, 0, -1);
    const auto nw = code_at(parsed, -1, -1);
    const auto ne = code_at(parsed, 1, -1);
    const auto w = code_at(parsed, -1, 0);
    const auto e = code_at(parsed, 1, 0);
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
    if (!parsed.geo.at.contains({0, 1}) && !glued) {
      if (m.cell_has_head(center.code) &&
          !m.is_halting(m.cell_state(center.code))) {
        return Verdict::no;
      }
    }
    return Verdict::yes;
  }

  Verdict check_pivot(const MachineCtx& ctx, const BallView& ball,
                      const ParsedBall& parsed) const {
    const auto& glue = parsed.glue_partners_of_center;
    const std::set<graph::NodeId> glue_set(glue.begin(), glue.end());
    // Components of glued border cells, connected via grid edges among
    // themselves.
    std::map<graph::NodeId, int> component;
    int comp_count = 0;
    for (graph::NodeId s : glue) {
      if (component.contains(s)) {
        continue;
      }
      const int c = comp_count++;
      std::vector<graph::NodeId> queue{s};
      component[s] = c;
      std::size_t head = 0;
      while (head < queue.size()) {
        const graph::NodeId u = queue[head++];
        const auto& lu = parsed.labels[static_cast<std::size_t>(u)];
        for (graph::NodeId x : ball.g.neighbors(u)) {
          if (!glue_set.contains(x) || component.contains(x)) {
            continue;
          }
          const auto& lx = parsed.labels[static_cast<std::size_t>(x)];
          if (classify(lu, lx) == Relation::glue) {
            continue;
          }
          component[x] = c;
          queue.push_back(x);
        }
      }
    }
    std::set<std::string> seen;
    for (int c = 0; c < comp_count; ++c) {
      std::vector<graph::NodeId> members;
      for (const auto& [v, cc] : component) {
        if (cc == c) {
          members.push_back(v);
        }
      }
      const auto key = reconstruct_component(ctx, ball, parsed, members);
      if (!key.has_value()) {
        return Verdict::no;
      }
      seen.insert(*key);
    }
    // Lemma-2 comparison: the pivot must see exactly C(M, r).
    return seen == ctx.fragment_keys ? Verdict::yes : Verdict::no;
  }

  // Rebuilds one fragment from its glued border component; returns its key.
  std::optional<std::string> reconstruct_component(
      const MachineCtx& ctx, const BallView& ball, const ParsedBall& parsed,
      const std::vector<graph::NodeId>& members) const {
    // Positions relative to the component's own origin.
    Geometry sub;
    if (!assign_positions(ball, parsed.labels, members[0], sub)) {
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
      codes[{x - min_x, y - min_y}] =
          parsed.labels[static_cast<std::size_t>(v)].code;
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
