#include "local/ball.h"

#include <unordered_set>

#include "support/hash.h"

namespace locald::local {

namespace {

void check_one_to_one(const std::vector<Id>& ids) {
  std::unordered_set<Id> seen;
  seen.reserve(ids.size());
  for (Id id : ids) {
    LOCALD_CHECK(seen.insert(id).second, "ball ids must be one-to-one");
  }
}

}  // namespace

BallView BallView::with_ids(const std::vector<Id>& new_ids) const {
  LOCALD_CHECK(new_ids.size() == static_cast<std::size_t>(g.node_count()),
               "one id per ball node");
  check_one_to_one(new_ids);
  BallView out = *this;
  out.ids = new_ids.data();
  return out;
}

graph::CanonicalForm BallView::canonical_form() const {
  std::vector<std::string> payloads;
  payloads.reserve(static_cast<std::size_t>(g.node_count()));
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    std::string p = (v == center) ? "C" : "N";
    p += label(v).payload();
    if (ids != nullptr) {
      p += "#";
      p += std::to_string(ids[static_cast<std::size_t>(v)]);
    }
    payloads.push_back(std::move(p));
  }
  graph::CanonicalForm form = graph::canonical_form(g, payloads);
  form.encoding.insert(0, "r=" + std::to_string(radius) + ";");
  form.fingerprint = hash_string(form.encoding);
  return form;
}

Ball BallView::materialize() const {
  const auto n = static_cast<std::size_t>(g.node_count());
  Ball out;
  out.g = graph::CsrGraph(g);
  out.center = center;
  out.radius = radius;
  if (to_host != nullptr) {
    out.to_host.assign(to_host, to_host + n);
  }
  out.labels.reserve(n);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    out.labels.push_back(label(v));
  }
  if (ids != nullptr) {
    out.ids = std::vector<Id>(ids, ids + n);
  }
  return out;
}

Ball extract_ball(const LabeledGraph& g, const IdAssignment* ids,
                  graph::NodeId v, int radius) {
  BallScratch scratch;
  return scratch.extract(g, ids, v, radius).materialize();
}

BallView BallScratch::extract(const LabeledGraph& g, const IdAssignment* ids,
                              graph::NodeId v, int radius) {
  if (ids != nullptr) {
    LOCALD_CHECK(ids->node_count() == g.node_count(),
                 "identifier assignment size mismatch");
  }
  const graph::BallSlice slice = scratch_.extract(g.graph().span(), v, radius);
  BallView out;
  out.g = slice.local;
  out.center = slice.center;
  out.radius = slice.radius;
  out.to_host = slice.to_host;
  out.host_labels = g.labels().data();
  if (ids != nullptr) {
    ids_.resize(static_cast<std::size_t>(slice.local.node_count()));
    for (graph::NodeId l = 0; l < slice.local.node_count(); ++l) {
      ids_[static_cast<std::size_t>(l)] =
          ids->of(slice.to_host[static_cast<std::size_t>(l)]);
    }
    out.ids = ids_.data();
  }
  return out;
}

}  // namespace locald::local
