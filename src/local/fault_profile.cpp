#include "local/fault_profile.h"

#include "support/check.h"
#include "support/format.h"

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

FaultProfileSpec parse_fault_spec(const std::string& text) {
  FaultProfileSpec spec;
  const std::size_t colon = text.find(':');
  spec.profile = text.substr(0, colon);
  LOCALD_CHECK(!spec.profile.empty(),
               "fault selector needs a name, e.g. \"none\" or "
               "\"drop:per-mille=250,attempts=2\"");
  if (colon == std::string::npos) {
    return spec;
  }
  const std::string rest = text.substr(colon + 1);
  LOCALD_CHECK(!rest.empty(),
               cat("fault selector \"", text, "\" has a ':' but no k=v list"));
  std::size_t start = 0;
  while (start <= rest.size()) {
    std::size_t comma = rest.find(',', start);
    if (comma == std::string::npos) {
      comma = rest.size();
    }
    const std::string item = rest.substr(start, comma - start);
    const std::size_t eq = item.find('=');
    LOCALD_CHECK(eq != std::string::npos && eq > 0,
                 cat("fault parameter \"", item, "\" is not of the form k=v"));
    const std::string key = item.substr(0, eq);
    const auto value = parse_int(item.substr(eq + 1));
    LOCALD_CHECK(value.has_value(),
                 cat("fault parameter \"", item, "\" needs an integer value"));
    for (const auto& [existing, unused] : spec.params) {
      LOCALD_CHECK(existing != key,
                   cat("fault parameter \"", key, "\" given twice"));
    }
    spec.params.emplace_back(key, *value);
    start = comma + 1;
  }
  return spec;
}

FaultProfileInstance::FaultProfileInstance(const FaultProfile* profile,
                                           std::vector<std::int64_t> values)
    : profile_(profile), values_(std::move(values)) {
  LOCALD_ASSERT(profile_ != nullptr, "resolved spec needs a profile");
  LOCALD_ASSERT(values_.size() == profile_->params.size(),
                "one value required per profile parameter");
}

std::int64_t FaultProfileInstance::value(const std::string& param) const {
  const int index = profile_->param_index(param);
  LOCALD_ASSERT(index >= 0,
                cat("profile ", profile_->name, " has no parameter ", param));
  return values_[static_cast<std::size_t>(index)];
}

std::string FaultProfileInstance::canonical() const {
  std::string out = profile_->name;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += profile_->params[i].name;
    out += '=';
    out += std::to_string(values_[i]);
  }
  return out;
}

FaultKnobs FaultProfileInstance::knobs() const {
  return profile_->knobs(values_);
}

int FaultProfile::param_index(const std::string& param_name) const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].name == param_name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

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

const FaultProfile* find_fault_profile(const std::string& name) {
  for (const FaultProfile& p : fault_registry()) {
    if (p.name == name) {
      return &p;
    }
  }
  return nullptr;
}

FaultProfileInstance resolve_faults(const FaultProfileSpec& spec) {
  const FaultProfile* profile = find_fault_profile(spec.profile);
  LOCALD_CHECK(profile != nullptr,
               cat("unknown fault profile \"", spec.profile,
                   "\" (see `locald list --faults`)"));
  std::vector<std::int64_t> values;
  values.reserve(profile->params.size());
  for (const FaultParamSpec& p : profile->params) {
    values.push_back(p.default_value);
  }
  for (const auto& [key, value] : spec.params) {
    const int index = profile->param_index(key);
    LOCALD_CHECK(index >= 0, cat("fault profile \"", profile->name,
                                 "\" has no parameter \"", key, "\""));
    values[static_cast<std::size_t>(index)] = value;
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const FaultParamSpec& p = profile->params[i];
    LOCALD_CHECK(values[i] >= p.min_value && values[i] <= p.max_value,
                 cat("fault profile \"", profile->name, "\" parameter ",
                     p.name, " = ", values[i], " is outside [", p.min_value,
                     ", ", p.max_value, "]"));
  }
  return FaultProfileInstance(profile, std::move(values));
}

FaultProfileInstance resolve_faults_text(const std::string& text) {
  return resolve_faults(parse_fault_spec(text));
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
