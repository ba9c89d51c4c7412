#include "props/properties.h"

#include "support/format.h"

namespace locald::props {

using local::BallView;
using local::LabeledGraph;
using local::LambdaProperty;
using local::Verdict;

namespace {

// Field 0 of a node's label, with a checked arity.
std::int64_t field0(const BallView& ball, graph::NodeId v) {
  LOCALD_CHECK(ball.label(v).size() >= 1, "property expects field 0");
  return ball.label(v).at(0);
}

}  // namespace

std::unique_ptr<local::Property> proper_coloring_property(int k) {
  LOCALD_CHECK(k >= 1, "need at least one colour");
  return std::make_unique<LambdaProperty>(
      cat("proper-", k, "-coloring"), [k](const LabeledGraph& g) {
        for (graph::NodeId v = 0; v < g.node_count(); ++v) {
          if (g.label(v).size() < 1) return false;
          const auto c = g.label(v).at(0);
          if (c < 0 || c >= k) return false;
          for (graph::NodeId w : g.graph().neighbors(v)) {
            if (g.label(w).size() >= 1 && g.label(w).at(0) == c) return false;
          }
        }
        return true;
      });
}

std::unique_ptr<local::LocalAlgorithm> proper_coloring_decider(int k) {
  LOCALD_CHECK(k >= 1, "need at least one colour");
  return local::make_oblivious(
      cat("decide-proper-", k, "-coloring"), 1, [k](const BallView& ball) {
        if (ball.center_label().size() < 1) return Verdict::no;
        const auto c = ball.center_label().at(0);
        if (c < 0 || c >= k) return Verdict::no;
        for (graph::NodeId w : ball.g.neighbors(ball.center)) {
          if (field0(ball, w) == c) return Verdict::no;
        }
        return Verdict::yes;
      });
}

}  // namespace locald::props
