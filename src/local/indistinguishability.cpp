#include "local/indistinguishability.h"

#include "graph/isomorphism.h"
#include "support/hash.h"

namespace locald::local {

namespace {

// Census over the stripped radius-r balls of `g`, byte-compatible with
// Ball::canonical_encoding(): the census centre-marks ("C"/"N" prefixes)
// the label payloads exactly as Ball does, so prefixing the radius yields
// the identical encoding — and hence the identical fingerprint — that
// BallView::canonical_fingerprint() computes one ball at a time.
std::vector<std::uint64_t> ball_fingerprints(const LabeledGraph& g, int radius,
                                             const exec::ExecContext& ctx) {
  std::vector<std::string> payloads;
  payloads.reserve(static_cast<std::size_t>(g.node_count()));
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    payloads.push_back(g.label(v).payload());
  }
  const graph::BallCensusResult census =
      graph::canonical_census(g.graph(), payloads, radius, ctx.pool);
  const std::string prefix = "r=" + std::to_string(radius) + ";";
  // Hash once per canonical class, then scatter to nodes.
  std::vector<std::uint64_t> class_fps;
  class_fps.reserve(census.class_encoding.size());
  for (const std::string& enc : census.class_encoding) {
    class_fps.push_back(hash_string(prefix + enc));
  }
  std::vector<std::uint64_t> fingerprints;
  fingerprints.reserve(census.class_of.size());
  for (const std::size_t cls : census.class_of) {
    fingerprints.push_back(class_fps[cls]);
  }
  return fingerprints;
}

}  // namespace

void BallProfile::add_graph(const LabeledGraph& g,
                            const exec::ExecContext& ctx) {
  for (const std::uint64_t fp : ball_fingerprints(g, radius_, ctx)) {
    fingerprints_.insert(fp);
  }
}

BallProfile BallProfile::of_graph(const LabeledGraph& g, int radius) {
  BallProfile profile(radius);
  profile.add_graph(g);
  return profile;
}

AuditResult audit_indistinguishability(const LabeledGraph& no_instance,
                                       const BallProfile& yes_profile,
                                       const exec::ExecContext& ctx,
                                       std::size_t max_witnesses) {
  AuditResult result;
  result.radius = yes_profile.radius();
  const std::vector<std::uint64_t> fps =
      ball_fingerprints(no_instance, yes_profile.radius(), ctx);
  std::unordered_set<std::uint64_t> seen;
  for (graph::NodeId v = 0; v < no_instance.node_count(); ++v) {
    const std::uint64_t fp = fps[static_cast<std::size_t>(v)];
    ++result.nodes_audited;
    seen.insert(fp);
    if (!yes_profile.contains(fp)) {
      ++result.missing;
      if (result.missing_witnesses.size() < max_witnesses) {
        result.missing_witnesses.push_back(v);
      }
    }
  }
  result.distinct_balls = seen.size();
  return result;
}

}  // namespace locald::local
