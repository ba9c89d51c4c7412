#include "local/fault_profile.h"


namespace locald::local {

namespace {

// Knob builders. Each profile's schema fixes which knobs its parameters
// feed; everything it leaves out stays at the clean default.

FaultKnobs none_knobs(const std::vector<std::int64_t>& /*values*/) {
  return FaultKnobs{};
}

FaultKnobs delay_knobs(const std::vector<std::int64_t>& values) {
  FaultKnobs k;
  k.delay_max = values[0];
  return k;
}

FaultKnobs drop_knobs(const std::vector<std::int64_t>& values) {
  FaultKnobs k;
  k.loss_per_mille = values[0];
  k.attempts = values[1];
  return k;
}

FaultKnobs fragment_knobs(const std::vector<std::int64_t>& values) {
  FaultKnobs k;
  k.fragments = values[0];
  return k;
}

FaultKnobs chaos_knobs(const std::vector<std::int64_t>& values) {
  FaultKnobs k;
  k.delay_max = values[0];
  k.loss_per_mille = values[1];
  k.attempts = values[2];
  k.fragments = values[3];
  return k;
}

}  // namespace

const std::vector<FaultProfile>& fault_registry() {
  // Parameter bounds keep one faulty run's event count polynomial in the
  // clean run's: delays and attempts add a bounded factor per message, and
  // fragmentation multiplies event counts by at most 16.
  static const std::vector<FaultProfile> registry = {
      {
          "none",
          "clean synchronous delivery (the event engine's control profile)",
          {},
          none_knobs,
      },
      {
          "delay",
          "per-hop delivery delay drawn uniformly from [0, max] per message",
          {{"max", 3, 1, 64,
            "upper bound on the extra delivery delay, in virtual time units"}},
          delay_knobs,
      },
      {
          "drop",
          "per-attempt probabilistic message loss with bounded retransmission",
          {{"per-mille", 200, 0, 1000,
            "drop probability per transmission attempt, in thousandths"},
           {"attempts", 3, 1, 16,
            "transmission attempts before the message is lost for good"}},
          drop_knobs,
      },
      {
          "fragment",
          "each delivered payload splits into pieces reassembled on arrival",
          {{"pieces", 3, 2, 16, "fragments per delivered message"}},
          fragment_knobs,
      },
      {
          "chaos",
          "delay + loss + fragmentation together (every knob active)",
          {{"delay", 2, 0, 64, "upper bound on the extra delivery delay"},
           {"per-mille", 125, 0, 1000,
            "drop probability per transmission attempt, in thousandths"},
           {"attempts", 4, 1, 16,
            "transmission attempts before the message is lost for good"},
           {"pieces", 2, 1, 16, "fragments per delivered message"}},
          chaos_knobs,
      },
  };
  return registry;
}

FaultProfileInstance resolve_faults_text(const std::string& text) {
  const Selector selector = parse_selector(text, kFaultSelector);
  const FaultProfile& profile =
      find_entry(fault_registry(), kFaultSelector, selector.name);
  return FaultProfileInstance(
      &profile,
      resolve_params(kFaultSelector, profile.name, profile.params, selector));
}

LabeledGraph mutate_label(const LabeledGraph& g, Rng& rng) {
  LabeledGraph out = g;
  const graph::NodeId v =
      static_cast<graph::NodeId>(rng.below(g.node_count()));
  Label l = out.label(v);
  std::vector<std::int64_t> fields = l.fields();
  if (fields.empty()) {
    fields.push_back(0);
  }
  const std::size_t i = rng.below(fields.size());
  fields[i] += rng.range(-3, 3) | 1;  // guaranteed non-zero delta
  out.set_label(v, Label(std::move(fields)));
  return out;
}

LabeledGraph mutate_add_edge(const LabeledGraph& g, Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const graph::NodeId u =
        static_cast<graph::NodeId>(rng.below(g.node_count()));
    const graph::NodeId v =
        static_cast<graph::NodeId>(rng.below(g.node_count()));
    if (u != v && !g.graph().has_edge(u, v)) {
      graph::EdgeList edges = g.graph().edges();
      edges.emplace_back(u, v);
      return LabeledGraph(graph::CsrGraph::from_edges(g.node_count(), edges),
                          g.labels());
    }
  }
  return g;
}

LabeledGraph mutate_swap_labels(const LabeledGraph& g, Rng& rng) {
  LabeledGraph out = g;
  const graph::NodeId u =
      static_cast<graph::NodeId>(rng.below(g.node_count()));
  const graph::NodeId v =
      static_cast<graph::NodeId>(rng.below(g.node_count()));
  const Label lu = out.label(u);
  out.set_label(u, out.label(v));
  out.set_label(v, lu);
  return out;
}

LabeledGraph mutate(const LabeledGraph& g, Rng& rng) {
  switch (rng.below(3)) {
    case 0: return mutate_label(g, rng);
    case 1: return mutate_add_edge(g, rng);
    default: return mutate_swap_labels(g, rng);
  }
}

}  // namespace locald::local
