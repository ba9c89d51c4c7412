#include "graph/isomorphism.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "exec/thread_pool.h"
#include "graph/ball_slice.h"
#include "graph/census_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/hash.h"

namespace locald::graph {

namespace {

// Colours are dense ranks; a partition is stable ("equitable") when no two
// equally coloured nodes see different multisets of neighbour colours.
using Coloring = std::vector<int>;

std::atomic<std::uint64_t> g_forms{0};
std::atomic<std::uint64_t> g_census_balls{0};
std::atomic<std::uint64_t> g_census_raw_hits{0};

// Bridge the process-wide canonicalization counters into the metrics
// registry, once, on first census/counter use. Handles are deliberately
// leaked: these counters live for the whole process.
void ensure_canon_metrics_registered() {
  static const bool once = [] {
    obs::Registry& reg = obs::registry();
    static std::vector<obs::MetricHandle> handles;
    handles.push_back(reg.counter_fn(
        "locald_canon_forms_total",
        "Tier-2 canonical form computations (one per unique structure)",
        [] { return g_forms.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_canon_census_balls_total",
        "Balls passed through the bulk canonical census",
        [] { return g_census_balls.load(std::memory_order_relaxed); }));
    handles.push_back(reg.counter_fn(
        "locald_canon_census_raw_hits_total",
        "Census balls deduplicated before tier-2 canonicalization",
        [] { return g_census_raw_hits.load(std::memory_order_relaxed); }));
    return true;
  }();
  (void)once;
}

// Discovered-generator cap: enough to collapse every orbit the experiments
// meet; a bound so adversarial inputs cannot grow the list without limit.
constexpr std::size_t kMaxAutomorphisms = 256;

// Partition-refinement engine with scratch shared across a whole search:
// one flat signature arena (neighbour colours per node) re-sorted per round
// — no per-round map or vector-of-vector rebuilds. The host CSR's own
// offsets index the arena. Rank order of the new colours is derived from
// (old colour, degree, sorted neighbour colours), which is
// isomorphism-invariant, so equal inputs refine identically.
class Refiner {
 public:
  explicit Refiner(CsrSpan g) : g_(g) {
    const std::size_t n = static_cast<std::size_t>(g.n);
    arena_.resize(n == 0 ? 0 : g.offsets[n]);
    order_.resize(n);
    next_color_.resize(n);
  }

  // Refines `color` in place to the coarsest stable partition at or below
  // it, re-normalizing to dense ranks. Returns the number of colours.
  int refine(Coloring& color, CanonicalStats* stats) {
    const std::size_t n = color.size();
    if (n == 0) {
      return 0;
    }
    int classes_in = distinct_count(color);
    for (;;) {
      if (stats != nullptr) {
        ++stats->refinement_rounds;
      }
      for (std::size_t v = 0; v < n; ++v) {
        std::size_t at = g_.offsets[v];
        for (NodeId w : g_.neighbors(static_cast<NodeId>(v))) {
          arena_[at++] = color[static_cast<std::size_t>(w)];
        }
        std::sort(arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[v]),
                  arena_.begin() + static_cast<std::ptrdiff_t>(at));
      }
      std::iota(order_.begin(), order_.end(), 0);
      std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
        if (color[a] != color[b]) {
          return color[a] < color[b];
        }
        const std::size_t da = g_.offsets[a + 1] - g_.offsets[a];
        const std::size_t db = g_.offsets[b + 1] - g_.offsets[b];
        if (da != db) {
          return da < db;
        }
        return std::lexicographical_compare(
            arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[a]),
            arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[a + 1]),
            arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[b]),
            arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[b + 1]));
      });
      int next = 0;
      next_color_[order_[0]] = 0;
      for (std::size_t i = 1; i < n; ++i) {
        const std::size_t prev = order_[i - 1];
        const std::size_t cur = order_[i];
        if (color[prev] != color[cur] ||
            !std::equal(
                arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[prev]),
                arena_.begin() +
                    static_cast<std::ptrdiff_t>(g_.offsets[prev + 1]),
                arena_.begin() + static_cast<std::ptrdiff_t>(g_.offsets[cur]),
                arena_.begin() +
                    static_cast<std::ptrdiff_t>(g_.offsets[cur + 1]))) {
          ++next;
        }
        next_color_[cur] = next;
      }
      for (std::size_t v = 0; v < n; ++v) {
        color[v] = next_color_[v];
      }
      const int classes_out = next + 1;
      if (classes_out == classes_in) {
        return classes_out;
      }
      classes_in = classes_out;
    }
  }

 private:
  static int distinct_count(const Coloring& color) {
    std::vector<int> sorted(color);
    std::sort(sorted.begin(), sorted.end());
    return static_cast<int>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  }

  CsrSpan g_;
  std::vector<int> arena_;
  std::vector<std::size_t> order_;
  std::vector<int> next_color_;
};

// Initial colouring groups nodes by payload (rank = sorted payload order,
// an isomorphism-invariant assignment).
Coloring payload_coloring(const std::vector<std::string>& payloads) {
  const std::size_t n = payloads.size();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return payloads[a] < payloads[b];
  });
  Coloring color(n, 0);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && payloads[idx[i]] != payloads[idx[i - 1]]) {
      ++next;
    }
    color[idx[i]] = next;
  }
  return color;
}

// The target cell: the first smallest non-singleton colour class (minimal
// size, then minimal colour rank), members in ascending node order. Empty
// when the colouring is discrete. The choice rule is isomorphism-invariant;
// member iteration order need not be, because the search minimizes over
// every non-pruned branch.
std::vector<NodeId> target_cell(const Coloring& color, int classes) {
  std::vector<int> size(static_cast<std::size_t>(classes), 0);
  for (int c : color) {
    ++size[static_cast<std::size_t>(c)];
  }
  int pick = -1;
  for (int c = 0; c < classes; ++c) {
    if (size[static_cast<std::size_t>(c)] > 1 &&
        (pick < 0 || size[static_cast<std::size_t>(c)] <
                         size[static_cast<std::size_t>(pick)])) {
      pick = c;
    }
  }
  std::vector<NodeId> cell;
  if (pick < 0) {
    return cell;
  }
  for (std::size_t v = 0; v < color.size(); ++v) {
    if (color[v] == pick) {
      cell.push_back(static_cast<NodeId>(v));
    }
  }
  return cell;
}

std::string encode_discrete(CsrSpan g,
                            const std::vector<std::string>& payloads,
                            const Coloring& color,
                            std::vector<NodeId>* order_out) {
  const std::size_t n = color.size();
  std::vector<NodeId> order(n);
  for (std::size_t v = 0; v < n; ++v) {
    order[static_cast<std::size_t>(color[v])] = static_cast<NodeId>(v);
  }
  std::vector<int> position(n);
  for (std::size_t i = 0; i < n; ++i) {
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  std::string enc;
  enc += "n=";
  enc += std::to_string(n);
  enc += ";";
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = order[i];
    const std::string& p = payloads[static_cast<std::size_t>(v)];
    enc += "L";
    enc += std::to_string(p.size());
    enc += ":";
    enc += p;
    enc += "|A";
    std::vector<int> around;
    for (NodeId w : g.neighbors(v)) {
      const int pw = position[static_cast<std::size_t>(w)];
      if (pw < static_cast<int>(i)) {  // each edge recorded once
        around.push_back(pw);
      }
    }
    std::sort(around.begin(), around.end());
    for (int a : around) {
      enc += std::to_string(a);
      enc += ",";
    }
    enc += ";";
  }
  if (order_out != nullptr) {
    *order_out = std::move(order);
  }
  return enc;
}

// Union-find over ball nodes; orbit checks live on this.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) { reset(); }
  void reset() { std::iota(parent_.begin(), parent_.end(), 0); }
  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  void merge(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

bool span_less(const NeighborSpan& a, const NeighborSpan& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Individualization–refinement with automorphism discovery and orbit
// pruning (see the header for the strategy).
class Canonicalizer {
 public:
  Canonicalizer(CsrSpan g, const std::vector<std::string>& payloads,
                std::size_t max_leaves, CanonicalStats* stats)
      : g_(g),
        payloads_(payloads),
        max_leaves_(max_leaves),
        stats_(stats),
        refiner_(g),
        uf_(static_cast<std::size_t>(g.n)) {}

  CanonicalForm run() {
    Coloring color = payload_coloring(payloads_);
    search(std::move(color), 0);
    LOCALD_ASSERT(has_best_ || g_.n == 0,
                  "canonical search produced no leaf");
    CanonicalForm out;
    if (g_.n == 0) {
      out.encoding = "n=0;";
    } else {
      out.order = std::move(best_order_);
      out.encoding = std::move(best_);
    }
    out.fingerprint = hash_string(out.encoding);
    return out;
  }

 private:
  void bump(std::size_t CanonicalStats::* field) {
    if (stats_ != nullptr) {
      ++(stats_->*field);
    }
  }

  // Merges cell members that are interchangeable by a transposition fixing
  // everything else: equal open neighbourhoods (non-adjacent twins) or
  // equal closed neighbourhoods (adjacent twins). Such a transposition is
  // an automorphism that fixes any prefix (prefix nodes are singletons,
  // never cell members), so one branch per twin class covers them all.
  void merge_twins(const std::vector<NodeId>& cell, UnionFind& uf) {
    const std::size_t m = cell.size();
    std::vector<std::size_t> idx(m);
    // Non-adjacent twins: identical sorted neighbour lists.
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return span_less(g_.neighbors(cell[a]), g_.neighbors(cell[b]));
    });
    for (std::size_t i = 1; i < m; ++i) {
      if (g_.neighbors(cell[idx[i]]) == g_.neighbors(cell[idx[i - 1]])) {
        uf.merge(static_cast<std::size_t>(cell[idx[i]]),
                 static_cast<std::size_t>(cell[idx[i - 1]]));
      }
    }
    // Adjacent twins: identical closed neighbourhoods.
    std::vector<std::vector<NodeId>> closed(m);
    for (std::size_t i = 0; i < m; ++i) {
      closed[i] = g_.neighbors(cell[i]).to_vector();
      closed[i].insert(
          std::lower_bound(closed[i].begin(), closed[i].end(), cell[i]),
          cell[i]);
    }
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return closed[a] < closed[b];
    });
    for (std::size_t i = 1; i < m; ++i) {
      if (closed[idx[i]] == closed[idx[i - 1]]) {
        uf.merge(static_cast<std::size_t>(cell[idx[i]]),
                 static_cast<std::size_t>(cell[idx[i - 1]]));
      }
    }
  }

  // Rebuilds the orbit structure for a node at `depth`: twin merges plus
  // every discovered generator that fixes the current prefix pointwise.
  void rebuild_orbits(const std::vector<NodeId>& cell, std::size_t depth) {
    uf_.reset();
    merge_twins(cell, uf_);
    for (const std::vector<NodeId>& a : autos_) {
      bool fixes_prefix = true;
      for (std::size_t i = 0; i < depth; ++i) {
        if (a[static_cast<std::size_t>(path_[i])] != path_[i]) {
          fixes_prefix = false;
          break;
        }
      }
      if (!fixes_prefix) {
        continue;
      }
      for (std::size_t v = 0; v < a.size(); ++v) {
        uf_.merge(v, static_cast<std::size_t>(a[v]));
      }
    }
  }

  void handle_leaf(const Coloring& color) {
    ++leaves_;
    bump(&CanonicalStats::leaves);
    LOCALD_CHECK(leaves_ <= max_leaves_,
                 "canonical_form: too many automorphism branches");
    std::vector<NodeId> order;
    std::string enc = encode_discrete(g_, payloads_, color, &order);
    if (!has_best_ || enc < best_) {
      best_ = std::move(enc);
      best_order_ = std::move(order);
      best_path_ = path_;
      has_best_ = true;
      return;
    }
    if (enc != best_) {
      return;
    }
    // Equal leaves certify the automorphism g(order[i]) = best_order[i].
    const std::size_t n = order.size();
    std::vector<NodeId> a(n);
    bool identity = true;
    for (std::size_t i = 0; i < n; ++i) {
      a[static_cast<std::size_t>(order[i])] = best_order_[i];
      identity = identity && order[i] == best_order_[i];
    }
    if (identity) {
      return;
    }
    if (autos_.size() < kMaxAutomorphisms) {
      autos_.push_back(a);
      bump(&CanonicalStats::automorphisms);
    }
    // Divergence unwind: if g fixes the shared prefix and maps this leaf's
    // divergent branch onto the (already fully explored) branch the best
    // leaf took, the rest of the current subtree is an isomorphic copy.
    std::size_t d = 0;
    while (d < path_.size() && d < best_path_.size() &&
           path_[d] == best_path_[d]) {
      ++d;
    }
    if (d >= path_.size() || d >= best_path_.size()) {
      return;
    }
    for (std::size_t i = 0; i < d; ++i) {
      if (a[static_cast<std::size_t>(path_[i])] != path_[i]) {
        return;
      }
    }
    if (a[static_cast<std::size_t>(path_[d])] == best_path_[d]) {
      unwind_to_ = static_cast<int>(d);
    }
  }

  void search(Coloring color, std::size_t depth) {
    bump(&CanonicalStats::nodes);
    const int classes = refiner_.refine(color, stats_);
    const std::vector<NodeId> cell = target_cell(color, classes);
    if (cell.empty()) {
      handle_leaf(color);
      return;
    }
    // `uf_` is shared scratch: any child recursion rebuilds it for its own
    // cell, so it must be repopulated for this node after every descent.
    bool orbits_valid = false;
    std::vector<NodeId> processed;
    for (NodeId v : cell) {
      if (!orbits_valid) {
        rebuild_orbits(cell, depth);
        orbits_valid = true;
      }
      bool duplicate = false;
      for (NodeId w : processed) {
        if (uf_.find(static_cast<std::size_t>(v)) ==
            uf_.find(static_cast<std::size_t>(w))) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) {
        // Same orbit as an explored sibling: its subtree encodings are a
        // permuted copy — nothing new can beat the running best.
        bump(autos_.empty() ? &CanonicalStats::twin_prunes
                            : &CanonicalStats::orbit_prunes);
        continue;
      }
      // Split {v} out of its class below the rest: double every colour,
      // then lower v's. Refinement re-normalizes the ranks.
      Coloring child = color;
      for (int& c : child) {
        c *= 2;
      }
      child[static_cast<std::size_t>(v)] -= 1;
      path_.push_back(v);
      search(std::move(child), depth + 1);
      path_.pop_back();
      processed.push_back(v);
      orbits_valid = false;  // the descent clobbered uf_ (and may add autos)
      if (unwind_to_ >= 0) {
        if (static_cast<std::size_t>(unwind_to_) < depth) {
          return;  // an ancestor owns the divergence level
        }
        unwind_to_ = -1;  // this level: skip deeper, continue with siblings
      }
    }
  }

  CsrSpan g_;
  const std::vector<std::string>& payloads_;
  const std::size_t max_leaves_;
  CanonicalStats* stats_;
  Refiner refiner_;
  UnionFind uf_;

  std::size_t leaves_ = 0;
  std::string best_;
  std::vector<NodeId> best_order_;
  std::vector<NodeId> best_path_;
  bool has_best_ = false;
  std::vector<NodeId> path_;
  std::vector<std::vector<NodeId>> autos_;
  int unwind_to_ = -1;
};

// ---- census internals ------------------------------------------------------

// Host node v's label bytes. An empty payload vector is an unlabelled
// host, whose every node reads as the empty string.
const std::string& payload_of(const std::vector<std::string>& payloads,
                              NodeId v) {
  static const std::string kUnlabelled;
  return payloads.empty() ? kUnlabelled
                          : payloads[static_cast<std::size_t>(v)];
}

// Centre-marked payloads of a ball slice, in local-id order (matching
// local::Ball's stripped-ball payload scheme).
std::vector<std::string> slice_payloads(
    const BallSlice& s, const std::vector<std::string>& host_payloads) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(s.local.n));
  for (NodeId v = 0; v < s.local.n; ++v) {
    std::string p = (v == s.center) ? "C" : "N";
    p += payload_of(host_payloads, s.to_host[v]);
    out.push_back(std::move(p));
  }
  return out;
}

// One multiply–xorshift step per 64-bit word, over the exact extracted
// structure (size, centre, payload bytes eight at a time, local adjacency
// two 32-bit entries at a time). Words are read in native byte order, so
// the value is not portable across platforms; it never needs to be: slots
// are ordered by first node and a collision falls back to exact keys.
class WordHash {
 public:
  void word(std::uint64_t w) {
    h_ = (h_ ^ w) * 0x9e3779b97f4a7c15ULL;
    h_ ^= h_ >> 32;
  }
  void pair(std::uint32_t lo, std::uint32_t hi) {
    word(lo | static_cast<std::uint64_t>(hi) << 32);
  }
  template <typename T>
  void words32(const T* data, std::size_t count) {
    static_assert(sizeof(T) == 4);
    std::size_t i = 0;
    for (; i + 1 < count; i += 2) {
      pair(static_cast<std::uint32_t>(data[i]),
           static_cast<std::uint32_t>(data[i + 1]));
    }
    if (i < count) {
      word(static_cast<std::uint32_t>(data[i]));
    }
  }
  void bytes(const char* data, std::size_t size) {
    std::uint64_t w = 0;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
      std::memcpy(&w, data + i, 8);
      word(w);
    }
    if (i < size) {
      w = 0;
      std::memcpy(&w, data + i, size - i);
      word(w);
    }
  }
  // splitmix64's finalizer, so every output bit depends on every word.
  std::uint64_t value() const {
    std::uint64_t h = h_;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ULL;
};

// Exact structural equality of two extracted slices (same local adjacency
// bytes, same centre, same payload bytes node for node; null `payloads`
// means every host node carries the same bytes).
bool slices_equal(const BallSlice& a, const BallSlice& b,
                  const std::vector<std::string>* payloads) {
  if (a.local.n != b.local.n || a.center != b.center) {
    return false;
  }
  const NodeId n = a.local.n;
  if (n == 0) {
    return true;
  }
  if (!std::equal(a.local.offsets, a.local.offsets + n + 1, b.local.offsets)) {
    return false;
  }
  if (!std::equal(a.local.adj, a.local.adj + a.local.offsets[n],
                  b.local.adj)) {
    return false;
  }
  if (payloads == nullptr) {
    return true;
  }
  for (NodeId v = 0; v < n; ++v) {
    if ((*payloads)[static_cast<std::size_t>(a.to_host[v])] !=
        (*payloads)[static_cast<std::size_t>(b.to_host[v])]) {
      return false;
    }
  }
  return true;
}

// 32-bit words a slice occupies once copied out of scratch (an extracted
// ball always holds its centre, so n >= 1).
std::size_t slice_words(const BallSlice& s) {
  return 2 * static_cast<std::size_t>(s.local.n) + 1 +
         s.local.offsets[s.local.n];
}

// Slices copied out of scratch into flat arrays, so they outlive the next
// extraction.
class SliceArena {
 public:
  std::size_t words() const { return offsets_.size() + nodes_.size(); }

  // Copies `s` in; returns its index for view().
  std::uint32_t add(const BallSlice& s) {
    const NodeId n = s.local.n;
    entries_.push_back({offsets_.size(), nodes_.size(), n, s.center});
    offsets_.insert(offsets_.end(), s.local.offsets, s.local.offsets + n + 1);
    nodes_.insert(nodes_.end(), s.local.adj, s.local.adj + s.local.offsets[n]);
    nodes_.insert(nodes_.end(), s.to_host, s.to_host + n);
    return static_cast<std::uint32_t>(entries_.size() - 1);
  }

  BallSlice view(std::uint32_t k, int radius) const {
    const Entry& e = entries_[k];
    const EdgeIndex* offsets = offsets_.data() + e.offsets;
    const NodeId* adj = nodes_.data() + e.nodes;
    return BallSlice{CsrSpan{e.n, offsets, adj}, adj + offsets[e.n], e.center,
                     radius};
  }

 private:
  struct Entry {
    std::size_t offsets = 0;
    std::size_t nodes = 0;
    NodeId n = 0;
    NodeId center = 0;
  };
  std::vector<EdgeIndex> offsets_;
  std::vector<NodeId> nodes_;  // per entry: adjacency, then local -> host
  std::vector<Entry> entries_;
};

// The one extraction arena each thread's census work shares.
BallScratch& census_scratch() {
  thread_local BallScratch scratch;
  return scratch;
}

}  // namespace

CanonicalForm canonical_form(CsrSpan g,
                             const std::vector<std::string>& payloads,
                             std::size_t max_leaves, CanonicalStats* stats) {
  LOCALD_CHECK(payloads.size() == static_cast<std::size_t>(g.n),
               "one payload required per node");
  g_forms.fetch_add(1, std::memory_order_relaxed);
  Canonicalizer canonicalizer(g, payloads, max_leaves, stats);
  return canonicalizer.run();
}

CanonicalForm canonical_form(CsrSpan g, std::size_t max_leaves) {
  return canonical_form(
      g, std::vector<std::string>(static_cast<std::size_t>(g.n)), max_leaves);
}

std::string wl_certificate(CsrSpan g,
                           const std::vector<std::string>& payloads) {
  LOCALD_CHECK(payloads.size() == static_cast<std::size_t>(g.n),
               "one payload required per node");
  const std::size_t n = payloads.size();
  if (n == 0) {
    return "wl:n=0;";
  }
  Coloring color = payload_coloring(payloads);
  Refiner refiner(g);
  const int classes = refiner.refine(color, nullptr);
  // One class description per colour, in rank order: size, the payload the
  // class shares, and the sorted neighbour-colour multiset every member
  // sees — all isomorphism-invariant at stability.
  std::vector<std::string> lines(static_cast<std::size_t>(classes));
  std::vector<int> size(static_cast<std::size_t>(classes), 0);
  for (int c : color) {
    ++size[static_cast<std::size_t>(c)];
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto c = static_cast<std::size_t>(color[v]);
    if (!lines[c].empty()) {
      continue;
    }
    std::vector<int> around;
    for (NodeId w : g.neighbors(static_cast<NodeId>(v))) {
      around.push_back(color[static_cast<std::size_t>(w)]);
    }
    std::sort(around.begin(), around.end());
    std::string line;
    line += "C";
    line += std::to_string(c);
    line += "|n=";
    line += std::to_string(size[c]);
    line += "|L";
    line += std::to_string(payloads[v].size());
    line += ":";
    line += payloads[v];
    line += "|A";
    for (int a : around) {
      line += std::to_string(a);
      line += ",";
    }
    line += ";";
    lines[c] = std::move(line);
  }
  std::string cert = "wl:n=" + std::to_string(n) + ";";
  for (const std::string& line : lines) {
    cert += line;
  }
  return cert;
}

namespace census_detail {

std::uint64_t slice_hash(const BallSlice& s,
                         const std::vector<std::string>* payloads) {
  WordHash h;
  h.pair(static_cast<std::uint32_t>(s.local.n),
         static_cast<std::uint32_t>(s.center));
  if (payloads != nullptr) {
    for (NodeId v = 0; v < s.local.n; ++v) {
      const std::string& p =
          (*payloads)[static_cast<std::size_t>(s.to_host[v])];
      h.word(p.size());
      h.bytes(p.data(), p.size());
    }
  }
  h.words32(s.local.offsets, static_cast<std::size_t>(s.local.n) + 1);
  h.words32(s.local.adj, s.local.offsets[s.local.n]);
  return h.value();
}

BallCensusResult census_with_hash(const CsrGraph& host,
                                  const std::vector<std::string>& payloads,
                                  int radius, exec::ThreadPool* pool,
                                  std::size_t max_leaves, SliceHash hash,
                                  CensusPaths* paths) {
  const std::size_t n = static_cast<std::size_t>(host.node_count());
  LOCALD_CHECK(payloads.empty() || payloads.size() == n,
               "one payload required per host node");
  LOCALD_CHECK(radius >= 0, "radius must be non-negative");
  const CsrSpan hs = host.span();
  BallCensusResult result;
  ensure_canon_metrics_registered();
  g_census_balls.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) {
    return result;
  }
  obs::Span census_span("ball-census", "balls=" + std::to_string(n));
  // One stage span at a time, re-aimed as the census advances; emplace/reset
  // keeps sibling stages from nesting into each other.
  std::optional<obs::Span> stage_span;
  stage_span.emplace("census-extract-hash");

  // Payloads every host node shares tell no two balls apart, so hashing
  // and comparing skip them, as they do for an unlabelled host.
  const bool uniform =
      std::all_of(payloads.begin(), payloads.end(),
                  [&](const std::string& p) { return p == payloads[0]; });
  const std::vector<std::string>* labels = uniform ? nullptr : &payloads;

  // Stage 1 (parallel over fixed node blocks): extract each ball once, hash
  // it, and give it a block-local slot per distinct hash, in node order.
  // The first ball of each slot is copied out as the block's witness while
  // the block's witness words allow; every later ball of that slot is
  // compared with the witness at once, while its slice is still in
  // scratch. Witnesses and balls of slots too large to hold are deferred.
  // Which comparisons run depends on the block size alone, never on who
  // ran which block.
  constexpr std::uint32_t kUnheld = ~std::uint32_t{0};
  struct Block {
    std::vector<std::uint64_t> hash;   // per local slot
    std::vector<NodeId> first;         // first node of each local slot
    std::vector<NodeId> deferred;      // witnesses and unheld balls
    std::vector<std::uint32_t> slot;   // local slot -> global slot
  };
  const std::size_t block_count = (n + kBlockNodes - 1) / kBlockNodes;
  std::vector<Block> blocks(block_count);
  std::vector<std::uint32_t> slot(n);  // block-local until regrouped
  std::atomic<bool> collision{false};
  exec::parallel_for(pool, block_count, [&](std::size_t b) {
    Block& out = blocks[b];
    std::unordered_map<std::uint64_t, std::uint32_t> local_slot;
    std::vector<std::uint32_t> witness;  // per local slot: arena index
    SliceArena arena;
    BallScratch& scratch = census_scratch();
    const std::size_t end = std::min(n, (b + 1) * kBlockNodes);
    for (std::size_t i = b * kBlockNodes; i < end; ++i) {
      if (collision.load(std::memory_order_relaxed)) {
        return;
      }
      const auto v = static_cast<NodeId>(i);
      const BallSlice s = scratch.extract(hs, v, radius);
      const auto [it, inserted] = local_slot.emplace(
          hash(s, labels), static_cast<std::uint32_t>(out.hash.size()));
      slot[i] = it->second;
      if (inserted) {
        out.hash.push_back(it->first);
        out.first.push_back(v);
        out.deferred.push_back(v);
        witness.push_back(arena.words() + slice_words(s) <= kWitnessWords
                              ? arena.add(s)
                              : kUnheld);
      } else if (witness[it->second] == kUnheld) {
        out.deferred.push_back(v);
      } else if (!slices_equal(s, arena.view(witness[it->second], radius),
                               labels)) {
        collision.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  const bool stage1_mismatch = collision.load();

  // Group by hash in node order (scheduling-independent): blocks in order,
  // each block's slots in first-occurrence order.
  std::vector<NodeId> representative;
  if (!stage1_mismatch) {
    std::unordered_map<std::uint64_t, std::uint32_t> slot_of_hash;
    for (Block& block : blocks) {
      block.slot.reserve(block.hash.size());
      for (std::size_t k = 0; k < block.hash.size(); ++k) {
        const auto [it, inserted] = slot_of_hash.emplace(
            block.hash[k], static_cast<std::uint32_t>(representative.size()));
        if (inserted) {
          representative.push_back(block.first[k]);
        }
        block.slot.push_back(it->second);
      }
    }
    exec::parallel_for(pool, block_count, [&](std::size_t b) {
      const std::size_t end = std::min(n, (b + 1) * kBlockNodes);
      for (std::size_t i = b * kBlockNodes; i < end; ++i) {
        slot[i] = blocks[b].slot[slot[i]];
      }
    });
  }

  // Deferred checks (parallel): equality is transitive, so only witnesses
  // that are not their slot's representative, and unheld balls, still need
  // comparing with the representative. Each such representative is
  // materialized once.
  stage_span.reset();
  stage_span.emplace("census-dedup-verify");
  std::size_t deferred_checks = 0;
  if (!stage1_mismatch) {
    struct Check {
      std::uint32_t slot;  // global slot, then index into `reps`
      NodeId node;
    };
    std::vector<Check> checks;
    for (const Block& block : blocks) {
      for (NodeId v : block.deferred) {
        const std::uint32_t k = slot[static_cast<std::size_t>(v)];
        if (representative[k] != v) {
          checks.push_back({k, v});
        }
      }
    }
    deferred_checks = checks.size();
    std::stable_sort(
        checks.begin(), checks.end(),
        [](const Check& a, const Check& b) { return a.slot < b.slot; });
    std::vector<NodeId> rep_nodes;
    for (Check& c : checks) {
      if (rep_nodes.empty() || rep_nodes.back() != representative[c.slot]) {
        rep_nodes.push_back(representative[c.slot]);
      }
      c.slot = static_cast<std::uint32_t>(rep_nodes.size() - 1);
    }
    std::vector<SliceArena> reps(rep_nodes.size());
    exec::parallel_for(pool, rep_nodes.size(), [&](std::size_t k) {
      reps[k].add(census_scratch().extract(hs, rep_nodes[k], radius));
    });
    exec::parallel_for(pool, checks.size(), [&](std::size_t k) {
      if (collision.load(std::memory_order_relaxed)) {
        return;
      }
      const BallSlice a = census_scratch().extract(hs, checks[k].node, radius);
      if (!slices_equal(a, reps[checks[k].slot].view(0, radius), labels)) {
        collision.store(true, std::memory_order_relaxed);
      }
    });
  }
  blocks.clear();
  blocks.shrink_to_fit();
  if (paths != nullptr) {
    paths->deferred_checks = deferred_checks;
    paths->stage1_mismatch = stage1_mismatch;
    paths->deferred_mismatch = !stage1_mismatch && collision.load();
  }
  if (collision.load()) {
    // Vanishingly rare (two distinct structures sharing a 64-bit hash).
    // Fall back to grouping the whole census by exact serialized keys —
    // deterministic, just memory-heavier.
    std::vector<std::string> raw(n);
    exec::parallel_for(pool, n, [&](std::size_t i) {
      const BallSlice s =
          census_scratch().extract(hs, static_cast<NodeId>(i), radius);
      std::string key;
      key += std::to_string(s.local.n);
      key += "|";
      key += std::to_string(s.center);
      key += "|";
      for (NodeId v = 0; v < s.local.n; ++v) {
        const std::string& p = payload_of(payloads, s.to_host[v]);
        key += std::to_string(p.size());
        key += ":";
        key += p;
        key += ";";
      }
      key += "|";
      for (NodeId v = 0; v < s.local.n; ++v) {
        for (NodeId w : s.local.neighbors(v)) {
          if (w > v) {
            key += std::to_string(v);
            key += ",";
            key += std::to_string(w);
            key += ";";
          }
        }
      }
      raw[i] = std::move(key);
    });
    representative.clear();
    std::unordered_map<std::string_view, std::uint32_t> slot_of_key;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, inserted] = slot_of_key.emplace(
          raw[i], static_cast<std::uint32_t>(representative.size()));
      if (inserted) {
        representative.push_back(static_cast<NodeId>(i));
      }
      slot[i] = it->second;
    }
  }
  result.unique_structures = representative.size();
  result.raw_duplicates = n - representative.size();
  g_census_raw_hits.fetch_add(result.raw_duplicates,
                              std::memory_order_relaxed);

  // Stage 2 (parallel): one tier-2 search per unique structure.
  stage_span.reset();
  stage_span.emplace("census-canonicalize",
                     "unique=" + std::to_string(representative.size()));
  std::vector<std::string> encodings(representative.size());
  exec::parallel_for(pool, representative.size(), [&](std::size_t k) {
    const BallSlice s =
        census_scratch().extract(hs, representative[k], radius);
    encodings[k] =
        canonical_form(s.local, slice_payloads(s, payloads), max_leaves)
            .encoding;
  });
  stage_span.reset();

  // Stage 3: fold unique structures into classes (distinct structures can
  // share a canonical form) and scatter in node order. Slots are ordered
  // by first-occurrence node, so the first slot of a class names the
  // class's first host node as its representative.
  std::vector<std::size_t> class_of_slot(representative.size());
  {
    std::unordered_map<std::string_view, std::size_t> class_ids;
    for (std::size_t k = 0; k < representative.size(); ++k) {
      const auto [it, inserted] =
          class_ids.emplace(encodings[k], class_ids.size());
      if (inserted) {
        result.class_representative.push_back(representative[k]);
        result.class_encoding.push_back(encodings[k]);
      }
      class_of_slot[k] = it->second;
    }
    result.distinct = static_cast<std::int64_t>(class_ids.size());
  }
  result.class_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.class_of[i] = class_of_slot[slot[i]];
  }
  return result;
}

}  // namespace census_detail

BallCensusResult canonical_census(const CsrGraph& host,
                                  const std::vector<std::string>& payloads,
                                  int radius, exec::ThreadPool* pool,
                                  std::size_t max_leaves) {
  return census_detail::census_with_hash(host, payloads, radius, pool,
                                         max_leaves, census_detail::slice_hash);
}

CanonicalizationCounters canonicalization_counters() {
  ensure_canon_metrics_registered();
  CanonicalizationCounters out;
  out.forms = g_forms.load(std::memory_order_relaxed);
  out.census_balls = g_census_balls.load(std::memory_order_relaxed);
  out.census_raw_hits = g_census_raw_hits.load(std::memory_order_relaxed);
  return out;
}

bool isomorphic(CsrSpan a, const std::vector<std::string>& payload_a,
                CsrSpan b, const std::vector<std::string>& payload_b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) {
    return false;
  }
  return canonical_form(a, payload_a).encoding ==
         canonical_form(b, payload_b).encoding;
}

bool isomorphic(CsrSpan a, CsrSpan b) {
  return isomorphic(
      a, std::vector<std::string>(static_cast<std::size_t>(a.n)), b,
      std::vector<std::string>(static_cast<std::size_t>(b.n)));
}

}  // namespace locald::graph
