#include "local/indistinguishability.h"

#include "graph/isomorphism.h"

namespace locald::local {

namespace {

// Census over the stripped radius-r balls of `g`, byte-compatible with
// Ball::canonical_encoding(): the census centre-marks ("C"/"N" prefixes)
// the label payloads exactly as Ball does, so prefixing the radius yields
// the identical encoding that BallView::canonical_encoding() computes one
// ball at a time. Returns the census with that prefix applied to every
// class encoding.
graph::BallCensusResult stripped_census(const LabeledGraph& g, int radius,
                                        const exec::ExecContext& ctx) {
  std::vector<std::string> payloads;
  payloads.reserve(static_cast<std::size_t>(g.node_count()));
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    payloads.push_back(g.label(v).payload());
  }
  graph::BallCensusResult census =
      graph::canonical_census(g.graph(), payloads, radius, ctx.pool);
  const std::string prefix = "r=" + std::to_string(radius) + ";";
  for (std::string& enc : census.class_encoding) enc.insert(0, prefix);
  return census;
}

}  // namespace

void BallProfile::add_graph(const LabeledGraph& g,
                            const exec::ExecContext& ctx) {
  for (std::string& enc : stripped_census(g, radius_, ctx).class_encoding) {
    encodings_.insert(std::move(enc));
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
  const graph::BallCensusResult census =
      stripped_census(no_instance, yes_profile.radius(), ctx);
  // One membership test per class; census classes are distinct encodings.
  std::vector<bool> class_missing;
  class_missing.reserve(census.class_encoding.size());
  for (const std::string& enc : census.class_encoding) {
    class_missing.push_back(!yes_profile.contains(enc));
  }
  for (graph::NodeId v = 0; v < no_instance.node_count(); ++v) {
    ++result.nodes_audited;
    if (class_missing[census.class_of[static_cast<std::size_t>(v)]]) {
      ++result.missing;
      if (result.missing_witnesses.size() < max_witnesses) {
        result.missing_witnesses.push_back(v);
      }
    }
  }
  result.distinct_balls = census.class_encoding.size();
  return result;
}

}  // namespace locald::local
