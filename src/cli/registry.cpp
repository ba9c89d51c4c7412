#include "cli/scenario.h"

#include "cli/scenarios.h"
#include "gen/family.h"
#include "local/fault_profile.h"

namespace locald::cli {

const std::vector<Scenario>& scenario_registry() {
  static const std::vector<Scenario> registry = [] {
    std::vector<Scenario> all;
    for (auto* section : {&matrix_scenarios, &tree_scenarios,
                          &halting_scenarios, &gen_scenarios,
                          &fault_scenarios}) {
      auto scenarios = (*section)();
      all.insert(all.end(), std::make_move_iterator(scenarios.begin()),
                 std::make_move_iterator(scenarios.end()));
    }
    return all;
  }();
  return registry;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : scenario_registry()) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

const Scenario& resolve_scenario(const std::string& name,
                                 const std::string& family,
                                 const std::string& faults) {
  const Scenario* scenario = find_scenario(name);
  if (scenario == nullptr) {
    throw UnknownScenario(cat("unknown scenario ", json_quote(name),
                              " (see `locald list` or /v1/scenarios)"));
  }
  const char* unsupported =
      !family.empty() && scenario->family_help.empty()  ? "a family"
      : !faults.empty() && scenario->fault_help.empty() ? "a fault profile"
                                                        : nullptr;
  if (unsupported != nullptr) {
    throw Error(cat("scenario ", json_quote(name), " does not take ",
                    unsupported, " (see `locald help ", name, "`)"));
  }
  // Explicit selector values override every size mapping, so resolving at
  // size 0 raises exactly the errors no --size can change: malformed text,
  // unknown names and parameters, out-of-range explicit values.
  if (!family.empty()) gen::resolve_family_text(family);
  if (!faults.empty()) local::resolve_faults_text(faults);
  return *scenario;
}

void emit_table(std::ostream& out, const ScenarioOptions& opts,
                const std::string& title, const TextTable& table) {
  if (opts.format == OutputFormat::csv) {
    out << "# " << title << '\n' << table.render_csv();
  } else {
    out << title << '\n' << table.render() << '\n';
  }
}

void emit_note(std::ostream& out, const ScenarioOptions& opts,
               const std::string& text) {
  if (opts.format == OutputFormat::text) {
    out << text << '\n';
  }
}

}  // namespace locald::cli
