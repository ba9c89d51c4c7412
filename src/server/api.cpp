#include "server/api.h"

#include <limits>
#include <sstream>

#include "cli/sweep.h"
#include "gen/family.h"
#include "local/fault_profile.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/format.h"
#include "support/json.h"
#include "support/schema.h"
#include "support/selector.h"

namespace locald::server {

namespace {

// Field accessors with request-shaped error messages (they surface to
// clients verbatim inside the 400 body).
std::uint64_t take_seed(const JsonValue& v, const char* field) {
  LOCALD_CHECK(v.is_integer(), cat("field \"", field,
                                   "\" must be a non-negative integer"));
  const std::int64_t n = v.as_integer();
  LOCALD_CHECK(n >= 0, cat("field \"", field, "\" must be non-negative"));
  return static_cast<std::uint64_t>(n);
}

int take_count(const JsonValue& v, const char* field) {
  LOCALD_CHECK(v.is_integer(), cat("field \"", field,
                                   "\" must be a non-negative integer"));
  const std::int64_t n = v.as_integer();
  LOCALD_CHECK(n >= 0 && n <= std::numeric_limits<int>::max(),
               cat("field \"", field, "\" is out of range"));
  return static_cast<int>(n);
}

JsonValue parse_object_body(const std::string& body) {
  LOCALD_CHECK(!body.empty(), "request body must be a JSON object");
  const JsonValue root = parse_json(body);
  LOCALD_CHECK(root.is_object(), "request body must be a JSON object");
  return root;
}

std::string take_scenario_name(const JsonValue& root) {
  const JsonValue* name = root.find("scenario");
  LOCALD_CHECK(name != nullptr, "field \"scenario\" is required");
  LOCALD_CHECK(name->is_string(), "field \"scenario\" must be a string");
  LOCALD_CHECK(!name->as_string().empty(),
               "field \"scenario\" must be non-empty");
  return name->as_string();
}

// A selector field (`family`, `fault_profile`); empty when absent. Whether
// the selector names a registry entry is `cli::resolve_scenario`'s check.
std::string take_selector(const JsonValue& root, const char* field,
                          const char* catalog) {
  const JsonValue* selector = root.find(field);
  if (selector == nullptr) {
    return {};
  }
  LOCALD_CHECK(selector->is_string(),
               cat("field \"", field, "\" must be a string"));
  LOCALD_CHECK(!selector->as_string().empty(),
               cat("field \"", field, "\" must be a non-empty selector (see ",
                   catalog, ")"));
  return selector->as_string();
}

void reject_unknown_fields(const JsonValue& root,
                           std::initializer_list<const char*> known) {
  for (const auto& [key, value] : root.members()) {
    bool ok = false;
    for (const char* k : known) {
      ok = ok || key == k;
    }
    LOCALD_CHECK(ok, cat("unknown field ", json_quote(key)));
  }
}

}  // namespace

ScenarioRequest<cli::ScenarioOptions> parse_run_request(
    const std::string& body) {
  const JsonValue root = parse_object_body(body);
  reject_unknown_fields(
      root, {"scenario", "seed", "size", "trials", "family", "fault_profile"});
  ScenarioRequest<cli::ScenarioOptions> req;
  req.scenario = take_scenario_name(root);
  cli::ScenarioOptions& opts = req.options;
  if (const JsonValue* v = root.find("seed")) opts.seed = take_seed(*v, "seed");
  if (const JsonValue* v = root.find("size")) {
    opts.size = take_count(*v, "size");
  }
  if (const JsonValue* v = root.find("trials")) {
    opts.trials = take_count(*v, "trials");
  }
  opts.family = take_selector(root, "family", "/v1/families");
  opts.faults = take_selector(root, "fault_profile", "/v1/faults");
  return req;
}

ScenarioRequest<cli::SweepOptions> parse_sweep_request(
    const std::string& body) {
  const JsonValue root = parse_object_body(body);
  reject_unknown_fields(
      root, {"scenario", "seed", "sizes", "trials", "family", "fault_profile"});
  ScenarioRequest<cli::SweepOptions> req;
  req.scenario = take_scenario_name(root);
  cli::SweepOptions& sweep = req.options;
  sweep.family = take_selector(root, "family", "/v1/families");
  sweep.faults = take_selector(root, "fault_profile", "/v1/faults");
  if (const JsonValue* v = root.find("seed")) {
    sweep.seed = take_seed(*v, "seed");
  }
  if (const JsonValue* v = root.find("trials")) {
    sweep.trials = take_count(*v, "trials");
  }
  if (const JsonValue* v = root.find("sizes")) {
    LOCALD_CHECK(v->is_array(), "field \"sizes\" must be an array");
    LOCALD_CHECK(!v->items().empty(),
                 "field \"sizes\" must hold at least one size");
    // A grid is bounded work per request; an enormous one is a typo or a
    // resource-exhaustion attempt, not a sweep.
    LOCALD_CHECK(v->items().size() <= 256,
                 "field \"sizes\" holds more than 256 cells");
    for (const JsonValue& item : v->items()) {
      sweep.sizes.push_back(take_count(item, "sizes"));
    }
  }
  return req;
}

std::string scenarios_document() {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-list");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("scenarios");
  w.begin_array();
  for (const cli::Scenario& s : cli::scenario_registry()) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("paper_ref");
    w.value(s.paper_ref);
    w.key("summary");
    w.value(s.summary);
    w.key("size_help");
    w.value(s.size_help);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  return out.str();
}

namespace {

// The catalog of a selector registry: per entry its name, summary, the
// members `extra` writes, and its parameter schema.
template <class Entry, class Extra>
std::string catalog_document(const char* tool, const char* key,
                             const std::vector<Entry>& registry,
                             const Extra& extra) {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value(tool);
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key(key);
  w.begin_array();
  for (const Entry& entry : registry) {
    w.begin_object();
    w.key("name");
    w.value(entry.name);
    w.key("summary");
    w.value(entry.summary);
    extra(w, entry);
    write_params(w, entry.params);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  return out.str();
}

}  // namespace

std::string families_document() {
  return catalog_document(
      "locald-families", "families", gen::family_registry(),
      [](JsonWriter& w, const gen::Family& f) {
        w.key("randomized");
        w.value(f.randomized);
      });
}

std::string faults_document() {
  return catalog_document("locald-faults", "faults", local::fault_registry(),
                          [](JsonWriter&, const local::FaultProfile&) {});
}

std::string version_document() {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-version");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("graph_core");
  w.value(kGraphCoreId);
  w.key("build");
  w.begin_object();
  w.key("compiler");
#ifdef __VERSION__
  w.value(__VERSION__);
#else
  w.value("unknown");
#endif
  w.key("standard");
  w.value(static_cast<std::int64_t>(__cplusplus));
  w.end_object();
  w.end_object();
  out << "\n";
  return out.str();
}

std::string run_document(const std::string& scenario_name,
                         const cli::ScenarioOptions& opts, bool* ok_out) {
  const cli::Scenario& scenario =
      cli::resolve_scenario(scenario_name, opts.family, opts.faults);
  cli::ScenarioOptions csv = opts;
  csv.format = cli::OutputFormat::csv;  // the machine-readable renderer

  std::ostringstream tables;
  bool ok = false;
  std::string error;
  try {
    obs::Span span("run-document", scenario.name);
    ok = scenario.run(csv, tables);
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (ok_out != nullptr) *ok_out = ok;

  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-run");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("scenario");
  w.value(scenario.name);
  w.key("paper_ref");
  w.value(scenario.paper_ref);
  w.key("seed");
  w.value(opts.seed);
  w.key("size");
  w.value(opts.size);
  w.key("trials");
  w.value(opts.trials);
  if (!opts.family.empty()) {
    w.key("family");
    w.value(opts.family);
  }
  if (!opts.faults.empty()) {
    w.key("faults");
    w.value(opts.faults);
  }
  w.key("ok");
  w.value(ok);
  if (!error.empty()) {
    w.key("error");
    w.value(error);
  }
  // The scenario's own CSV tables, embedded verbatim (partial when the
  // scenario threw mid-run).
  w.key("output");
  w.value(tables.str());
  w.end_object();
  out << "\n";
  return out.str();
}

std::string sweep_document(const std::string& scenario,
                           const cli::SweepOptions& sweep, bool* ok_out) {
  std::ostringstream out;
  obs::Span span("sweep-document", scenario);
  const int exit_code = cli::run_sweep(scenario, sweep, out);
  if (ok_out != nullptr) *ok_out = exit_code == 0;
  return out.str();
}

void sweep_document_stream(
    const std::string& scenario, const cli::SweepOptions& sweep,
    const std::function<void(const std::string&)>& emit, bool* ok_out) {
  // One buffer, drained at every flush boundary: the emitted pieces are a
  // partition of exactly the bytes the buffered path returns, because both
  // paths run the identical writer over the identical stream.
  std::ostringstream out;
  const auto flush = [&] {
    std::string piece = out.str();
    if (!piece.empty()) {
      out.str({});
      emit(piece);
    }
  };
  const int exit_code = cli::run_sweep(scenario, sweep, out, flush);
  if (ok_out != nullptr) *ok_out = exit_code == 0;
}

std::string error_document(int status, const std::string& message) {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("status");
  w.value(status);
  w.key("error");
  w.value(message);
  w.end_object();
  out << "\n";
  return out.str();
}

}  // namespace locald::server
