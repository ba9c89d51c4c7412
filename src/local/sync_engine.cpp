#include "local/sync_engine.h"

#include <algorithm>
#include <sstream>

#include "graph/csr.h"
#include "local/event_engine.h"
#include "support/check.h"

namespace locald::local {

namespace {

std::string encode_label(const Label& l) {
  std::string s;
  for (std::size_t i = 0; i < l.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(l.at(i));
  }
  return s;
}

Label decode_label(const std::string& s) {
  std::vector<std::int64_t> fields;
  if (!s.empty()) {
    std::istringstream is(s);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      fields.push_back(std::stoll(tok));
    }
  }
  return Label(std::move(fields));
}

std::string encode_ids(const std::vector<Id>& ids) {
  std::string s;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(ids[i]);
  }
  return s;
}

std::vector<Id> decode_ids(const std::string& s) {
  std::vector<Id> ids;
  if (!s.empty()) {
    std::istringstream is(s);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      ids.push_back(std::stoull(tok));
    }
  }
  return ids;
}

}  // namespace

std::string encode_knowledge(Id self, const Knowledge& k) {
  std::string out = std::to_string(self);
  out += "\n";
  for (const auto& [id, node] : k) {
    LOCALD_ASSERT(id == node.id, "knowledge key must match node id");
    out += std::to_string(id);
    out += "|";
    out += encode_label(node.label);
    out += "|";
    out += encode_ids(node.adj);
    out += "\n";
  }
  return out;
}

std::pair<Id, Knowledge> decode_knowledge(const std::string& payload) {
  std::istringstream is(payload);
  std::string line;
  LOCALD_CHECK(std::getline(is, line), "knowledge payload missing header");
  const Id self = std::stoull(line);
  Knowledge k;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    const std::size_t p1 = line.find('|');
    const std::size_t p2 = line.find('|', p1 + 1);
    LOCALD_CHECK(p1 != std::string::npos && p2 != std::string::npos,
                 "malformed knowledge line");
    KnownNode node;
    node.id = std::stoull(line.substr(0, p1));
    node.label = decode_label(line.substr(p1 + 1, p2 - p1 - 1));
    node.adj = decode_ids(line.substr(p2 + 1));
    k.emplace(node.id, std::move(node));
  }
  return {self, std::move(k)};
}

namespace {

// Adjacency knowledge only grows (from the empty initial list to the full
// neighbour set), so merging takes the union.
void merge_into(Knowledge& dst, const Knowledge& src) {
  for (const auto& [id, node] : src) {
    auto [it, fresh] = dst.emplace(id, node);
    if (!fresh) {
      LOCALD_CHECK(it->second.label == node.label,
                   "inconsistent label knowledge for the same id");
      std::vector<Id> merged = it->second.adj;
      merged.insert(merged.end(), node.adj.begin(), node.adj.end());
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      it->second.adj = std::move(merged);
    }
  }
}

}  // namespace

Ball ball_from_knowledge(Id self, const Knowledge& k, int radius) {
  LOCALD_CHECK(k.contains(self), "knowledge must contain the centre");
  // BFS over known adjacency, depth `radius`.
  std::vector<Id> order{self};
  std::map<Id, int> dist{{self, 0}};
  std::size_t head = 0;
  while (head < order.size()) {
    const Id u = order[head++];
    const int du = dist[u];
    if (du >= radius) {
      continue;
    }
    auto it = k.find(u);
    LOCALD_ASSERT(it != k.end(), "BFS reached an unknown node");
    for (Id w : it->second.adj) {
      if (k.contains(w) && !dist.contains(w)) {
        dist[w] = du + 1;
        order.push_back(w);
      }
    }
  }
  // Deterministic node order: (distance, id).
  std::stable_sort(order.begin(), order.end(), [&](Id a, Id b) {
    return std::pair(dist[a], a) < std::pair(dist[b], b);
  });
  std::map<Id, graph::NodeId> index;
  for (std::size_t i = 0; i < order.size(); ++i) {
    index[order[i]] = static_cast<graph::NodeId>(i);
  }
  Ball ball;
  ball.radius = radius;
  ball.center = index.at(self);
  std::vector<Id> ball_ids;
  // Under message loss an edge may be known from one endpoint only, so the
  // ball's edges are the union of both endpoints' reports.
  graph::EdgeList edges;
  for (const Id u : order) {
    const KnownNode& node = k.at(u);
    ball.labels.push_back(node.label);
    ball_ids.push_back(u);
    const graph::NodeId iu = index.at(u);
    for (Id w : node.adj) {
      auto it = index.find(w);
      if (it != index.end()) {
        edges.push_back(std::minmax(iu, it->second));
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  ball.g = graph::CsrGraph::from_edges(
      static_cast<graph::NodeId>(order.size()), edges);
  ball.ids = std::move(ball_ids);
  // to_host is unknown to a message-passing node; leave empty.
  return ball;
}

namespace {

std::string init(Id self, const Label& label) {
  Knowledge k;
  k.emplace(self, KnownNode{self, label, {}});
  return encode_knowledge(self, k);
}

// Merges one round's delivered messages, in port order.
std::string update(const std::string& state,
                   const std::vector<const std::string*>& inbox) {
  auto [self, knowledge] = decode_knowledge(state);
  std::vector<Id> neighbor_ids;
  for (const std::string* msg : inbox) {
    auto [sender, their] = decode_knowledge(*msg);
    neighbor_ids.push_back(sender);
    merge_into(knowledge, their);
  }
  // Learning who the senders are completes this node's own adjacency.
  std::sort(neighbor_ids.begin(), neighbor_ids.end());
  Knowledge own;
  own.emplace(self, KnownNode{self, knowledge.at(self).label, neighbor_ids});
  merge_into(knowledge, own);
  return encode_knowledge(self, knowledge);
}

}  // namespace

std::vector<std::string> gather_knowledge(const LabeledGraph& g,
                                          const IdAssignment& ids,
                                          int horizon,
                                          const std::vector<bool>& delivered) {
  LOCALD_CHECK(ids.node_count() == g.node_count(),
               "identifier assignment size mismatch");
  const graph::CsrSpan csr = g.graph().span();
  const std::size_t arcs = csr.offsets[csr.n];
  const int rounds = gather_rounds(horizon);
  LOCALD_CHECK(delivered.size() == static_cast<std::size_t>(rounds) * arcs,
               "delivery mask must hold one bit per (round, arc)");
  // Round r + 1 reads the neighbours' round-r states, so two buffers.
  std::vector<std::string> state;
  std::vector<std::string> next(static_cast<std::size_t>(csr.n));
  for (graph::NodeId v = 0; v < csr.n; ++v) {
    state.push_back(init(ids.of(v), g.label(v)));
  }
  std::vector<const std::string*> inbox;
  for (int r = 0; r < rounds; ++r) {
    const std::size_t base = static_cast<std::size_t>(r) * arcs;
    for (std::size_t v = 0; v < state.size(); ++v) {
      inbox.clear();
      for (std::size_t a = csr.offsets[v]; a < csr.offsets[v + 1]; ++a) {
        if (delivered[base + a]) {
          inbox.push_back(&state[static_cast<std::size_t>(csr.adj[a])]);
        }
      }
      next[v] = update(state[v], inbox);
    }
    state.swap(next);
  }
  return state;
}

std::vector<Verdict> run_via_message_passing(const LocalAlgorithm& alg,
                                             const LabeledGraph& g,
                                             const IdAssignment& ids) {
  return run_via_event_engine(alg, g, ids, resolve_faults_text("none"),
                              /*seed=*/0)
      .verdicts;
}

}  // namespace locald::local
