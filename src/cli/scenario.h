// The scenario registry behind the `locald` command-line driver.
//
// Every paper artifact the benches and examples reproduce — the Section-1.1
// separation matrix, the Figure-1 layered trees, the Figure-2 G(M, r)
// construction, the Figure-3 pyramids, the Corollary-1 randomized decider,
// and the two warm-up promise problems — is registered here under a stable
// name. `locald list` enumerates the registry; `locald run <name>` executes
// one scenario end to end with selectable sizes, seeds, and text/CSV output,
// so the eight ad-hoc bench main()s share a single parameterized harness.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "exec/context.h"
#include "support/check.h"
#include "support/format.h"

namespace locald::cli {

enum class OutputFormat { text, csv };

// Knobs shared by every scenario. `size` is the scenario's principal scale
// parameter (documented per scenario in `Scenario::size_help`); 0 means
// "use the scenario default", matching the bench binaries.
struct ScenarioOptions {
  std::uint64_t seed = 42;
  int size = 0;
  int trials = 0;
  // `--family name:k=v,...` selector (gen/family.h); empty = the scenario's
  // built-in topology. Only meaningful for scenarios declaring
  // `family_help`; `resolve_scenario` rejects it elsewhere.
  std::string family;
  // `--faults name:k=v,...` selector (local/fault_profile.h); empty = the
  // scenario's default profile. Only meaningful for scenarios declaring
  // `fault_help`; `resolve_scenario` rejects it elsewhere.
  std::string faults;
  OutputFormat format = OutputFormat::text;
  // Include wall-clock columns in scenario tables (`locald run --timing`).
  // Scheduling-dependent, so off by default: the default output of every
  // scenario is a pure function of (seed, size, trials), which the serving
  // layer's byte-identity contract and CI's serve smoke both gate on.
  bool timing = false;
  // Execution engine handed down by the driver (--threads); the default is
  // the serial engine. Scenarios route their hot paths through it; verdicts
  // must not depend on the thread count (`locald sweep` gates on this).
  exec::ExecContext exec;
};

// A named, runnable paper artifact.
struct Scenario {
  std::string name;       // stable CLI name, e.g. "fig1-layered-trees"
  std::string paper_ref;  // where it lives in the paper, e.g. "Fig. 1, Sec. 2"
  std::string summary;      // one line for `locald list`
  std::string size_help;    // what --size means here (empty: unused)
  std::string family_help;  // what --family selects here (empty: unsupported)
  // Runs the scenario, writing tables to `out`. Returns true when every
  // reproduced verdict matched the paper's prediction.
  std::function<bool(const ScenarioOptions&, std::ostream&)> run;
  // What --faults selects here (empty: unsupported). Declared after `run`
  // so the registry's positional aggregate initializers — written before
  // fault profiles existed — keep their meaning (the explicit default keeps
  // them warning-free); scenarios opting in set the field by name.
  std::string fault_help = {};
};

// The full registry, in paper order.
const std::vector<Scenario>& scenario_registry();

// Lookup by CLI name; nullptr when unknown.
const Scenario* find_scenario(const std::string& name);

// A scenario name the registry does not hold: HTTP 404, CLI exit 2.
class UnknownScenario : public Error {
 public:
  using Error::Error;
};

// The one validation of a scenario request, shared by `locald run|sweep`
// and `POST /v1/run|/v1/sweep`. Throws `UnknownScenario` for an unknown
// name, and `Error` (HTTP 400, CLI exit 2) for a non-empty `family` or
// `faults` selector the scenario does not declare or the selector resolver
// rejects at every size. Both surfaces report the exception's message
// verbatim.
const Scenario& resolve_scenario(const std::string& name,
                                 const std::string& family,
                                 const std::string& faults);

// Shared table emission: a titled aligned table in text mode, a
// `# title`-prefixed RFC-4180 block in CSV mode.
void emit_table(std::ostream& out, const ScenarioOptions& opts,
                const std::string& title, const TextTable& table);

// A plain narrative line; suppressed in CSV mode so output stays parseable.
void emit_note(std::ostream& out, const ScenarioOptions& opts,
               const std::string& text);

}  // namespace locald::cli
