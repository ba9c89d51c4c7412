#include "local/sync_engine.h"

#include <algorithm>
#include <sstream>

#include "graph/graph.h"
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
  graph::GraphBuilder builder(static_cast<graph::NodeId>(order.size()));
  ball.radius = radius;
  ball.center = index.at(self);
  std::vector<Id> ball_ids;
  for (const Id u : order) {
    const KnownNode& node = k.at(u);
    ball.labels.push_back(node.label);
    ball_ids.push_back(u);
    for (Id w : node.adj) {
      auto it = index.find(w);
      if (it != index.end()) {
        builder.add_edge_if_absent(index.at(u), it->second);
      }
    }
  }
  ball.g = builder.build();
  ball.ids = std::move(ball_ids);
  // to_host is unknown to a message-passing node; leave empty.
  return ball;
}

std::string FullInfoGather::init(Id self, const Label& label) const {
  Knowledge k;
  k.emplace(self, KnownNode{self, label, {}});
  return encode_knowledge(self, k);
}

std::string FullInfoGather::update(
    const std::string& state, const std::vector<std::string>& inbox) const {
  auto [self, knowledge] = decode_knowledge(state);
  std::vector<Id> neighbor_ids;
  for (const std::string& msg : inbox) {
    if (msg.empty()) {
      // A lost message (faulty profiles): this round taught us nothing
      // about that port. Knowledge merging is a union, so a neighbour heard
      // in any other round still lands in the adjacency.
      continue;
    }
    auto [sender, their] = decode_knowledge(msg);
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

Ball FullInfoGather::ball(const std::string& state) const {
  const auto [self, knowledge] = decode_knowledge(state);
  return ball_from_knowledge(self, knowledge, horizon_);
}

std::vector<Verdict> run_via_message_passing(const LocalAlgorithm& alg,
                                             const LabeledGraph& g,
                                             const IdAssignment& ids) {
  return run_via_event_engine(alg, g, ids, resolve_faults_text("none"),
                              /*seed=*/0)
      .verdicts;
}

}  // namespace locald::local
