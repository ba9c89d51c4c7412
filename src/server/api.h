// The serving layer's JSON documents and request decoding, factored out of
// the socket code so `locald serve`, `locald list --format json`, and
// `locald run --format json` emit literally the same bytes.
//
// Determinism contract (inherited from the execution engine, see
// docs/ARCHITECTURE.md "Execution engine"): every document built here from a
// (scenario, seed, size, trials) tuple is a pure function of that tuple —
// no timestamps, no thread counts, no cache statistics. CI byte-compares a
// `POST /v1/run` response against the `locald run --format json` output at a
// different --threads value, so anything scheduling-dependent belongs in
// `/v1/metrics`, never here.
#pragma once

#include <functional>
#include <string>

#include "cli/scenario.h"
#include "cli/sweep.h"

namespace locald::server {

// A decoded POST /v1/run or /v1/sweep body: the scenario name plus the
// option struct the CLI builds from its flags (`cli::ScenarioOptions` for a
// run, `cli::SweepOptions` for a sweep), so omitted fields take the CLI
// flags' defaults. Only the request fields are set; the server supplies the
// execution engine. The JSON field `fault_profile` decodes into `faults`.
template <class Options>
struct ScenarioRequest {
  std::string scenario;
  Options options;
};

// Decode a request body. Both throw `Error` (surfaced as HTTP 400) on
// malformed JSON, wrong field types, negative values, or unknown fields —
// unknown fields are rejected so a typoed "trails" cannot silently run a
// default-parameter sweep. The scenario itself is resolved later, by the
// document builders.
ScenarioRequest<cli::ScenarioOptions> parse_run_request(
    const std::string& body);
ScenarioRequest<cli::SweepOptions> parse_sweep_request(
    const std::string& body);

// The scenario catalog: GET /v1/scenarios and `locald list --format json`.
std::string scenarios_document();

// The workload generator's family catalog (names, parameter schemas, size
// mapping availability): GET /v1/families and
// `locald list --families --format json`.
std::string families_document();

// The event engine's fault-profile catalog (names, parameter schemas):
// GET /v1/faults and `locald list --faults --format json`.
std::string faults_document();

// GET /v1/version: build information (compiler, language standard), the
// document schema version every /v1 response carries, and the graph-core
// identifier (support/schema.h). The one document a client may poll to
// decide whether its parser still matches the server.
std::string version_document();

// One scenario run: POST /v1/run and `locald run --format json`. Runs
// `scenario` with `opts` as given (seed, size, trials, selectors, and the
// execution engine: shared pool + cache on the server, per-run on the CLI —
// the engine contract makes the bytes identical either way), rendering its
// tables as CSV, and reports whether the paper's prediction was reproduced.
// `ok_out`, when non-null, receives the verdict for exit-code plumbing.
// Throws what `cli::resolve_scenario` throws, before running anything.
std::string run_document(const std::string& scenario,
                         const cli::ScenarioOptions& opts, bool* ok_out);

// A size-grid sweep: POST /v1/sweep. Delegates to `cli::run_sweep`, so the
// body is the same deterministic document the CLI prints (cells keep their
// fresh per-cell caches); `sweep.pool` is the server's process-wide pool
// (null = serial) and `sweep.timing` stays off. `ok_out` as above.
std::string sweep_document(const std::string& scenario,
                           const cli::SweepOptions& sweep, bool* ok_out);

// Streamed form of `sweep_document`: the SAME bytes, handed to `emit` in
// pieces as cells finish (prelude, one piece per cell, postlude) instead of
// buffered whole — the chunked-transfer payload of a streamed /v1/sweep.
// Concatenating every `emit` piece reproduces `sweep_document`'s return
// value byte for byte. An `emit` that throws aborts the sweep and
// propagates (the serving layer stops computing for a vanished client).
void sweep_document_stream(const std::string& scenario,
                           const cli::SweepOptions& sweep,
                           const std::function<void(const std::string&)>& emit,
                           bool* ok_out);

// {"error": ..., "status": N} — the uniform 4xx/5xx body.
std::string error_document(int status, const std::string& message);

}  // namespace locald::server
