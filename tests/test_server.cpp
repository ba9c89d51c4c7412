// Tests for the `locald serve` subsystem: HTTP request parsing edge cases,
// the API documents and their request decoding, routing, and live-socket
// integration — concurrent byte-identity, shared-cache warm-up, and the
// 503 backpressure path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/api.h"
#include "server/http.h"
#include "server/server.h"
#include "support/check.h"
#include "support/json.h"
#include "support/schema.h"

namespace locald::server {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// A ByteSource backed by a string, delivering at most `chunk` bytes per
// pull — small chunks exercise the incremental head/body accumulation.
ByteSource source_from(std::string data, std::size_t chunk = 7) {
  auto cursor = std::make_shared<std::size_t>(0);
  auto owned = std::make_shared<std::string>(std::move(data));
  return [cursor, owned, chunk](char* buf, std::size_t len) -> long {
    const std::size_t left = owned->size() - *cursor;
    const std::size_t n = std::min({len, left, chunk});
    std::memcpy(buf, owned->data() + *cursor, n);
    *cursor += n;
    return static_cast<long>(n);
  };
}

ParseResult parse(const std::string& raw) {
  return read_http_request(source_from(raw), HttpLimits{});
}

// A blocking one-shot HTTP client against 127.0.0.1:port.
int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  LOCALD_CHECK(fd >= 0, "client socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  LOCALD_CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0,
               "client connect()");
  return fd;
}

void send_raw(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    LOCALD_CHECK(n > 0, "client send()");
    sent += static_cast<std::size_t>(n);
  }
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

struct ClientResponse {
  int status = 0;
  std::string head;  // status line + headers
  std::string body;
};

ClientResponse split_response(const std::string& raw) {
  ClientResponse r;
  const std::size_t cut = raw.find("\r\n\r\n");
  LOCALD_CHECK(cut != std::string::npos, "response has no head terminator");
  r.head = raw.substr(0, cut);
  r.body = raw.substr(cut + 4);
  LOCALD_CHECK(raw.rfind("HTTP/1.1 ", 0) == 0, "bad status line");
  r.status = std::stoi(raw.substr(9, 3));
  return r;
}

ClientResponse request(int port, const std::string& bytes) {
  const int fd = connect_to(port);
  send_raw(fd, bytes);
  const std::string raw = read_to_eof(fd);
  ::close(fd);
  return split_response(raw);
}

// One-shot request builders: `Connection: close` keeps the read-to-EOF
// client model working now that the server defaults to keep-alive (the
// keep-alive conversation itself is covered by test_http_conformance).
std::string get(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
}

std::string post(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n" +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

// Decoded chunked-transfer response: the data frames in arrival order and
// their concatenation.
struct StreamedResponse {
  int status = 0;
  std::string head;
  std::vector<std::string> chunks;
  std::string body;
};

StreamedResponse decode_chunked(const std::string& raw) {
  StreamedResponse r;
  const std::size_t cut = raw.find("\r\n\r\n");
  LOCALD_CHECK(cut != std::string::npos, "response has no head terminator");
  r.head = raw.substr(0, cut);
  LOCALD_CHECK(raw.rfind("HTTP/1.1 ", 0) == 0, "bad status line");
  r.status = std::stoi(raw.substr(9, 3));
  LOCALD_CHECK(r.head.find("Transfer-Encoding: chunked") != std::string::npos,
               "response is not chunked");
  std::size_t pos = cut + 4;
  while (true) {
    const std::size_t eol = raw.find("\r\n", pos);
    LOCALD_CHECK(eol != std::string::npos, "truncated chunk-size line");
    const std::size_t len =
        std::stoull(raw.substr(pos, eol - pos), nullptr, 16);
    pos = eol + 2;
    if (len == 0) break;
    LOCALD_CHECK(pos + len + 2 <= raw.size(), "truncated chunk data");
    LOCALD_CHECK(raw.compare(pos + len, 2, "\r\n") == 0,
                 "chunk data not CRLF-terminated");
    r.chunks.push_back(raw.substr(pos, len));
    r.body += r.chunks.back();
    pos += len + 2;
  }
  return r;
}

// ---------------------------------------------------------------------------
// HTTP parsing
// ---------------------------------------------------------------------------

TEST(Http, ParsesGetRequest) {
  const ParseResult r =
      parse("GET /v1/healthz?probe=1 HTTP/1.1\r\nHost: x\r\nX-Ab: 2\r\n\r\n");
  ASSERT_EQ(r.status, 200) << r.error;
  EXPECT_EQ(r.request.method, "GET");
  EXPECT_EQ(r.request.target, "/v1/healthz?probe=1");
  EXPECT_EQ(r.request.path(), "/v1/healthz");  // query stripped for routing
  EXPECT_EQ(r.request.version, "HTTP/1.1");
  EXPECT_TRUE(r.request.body.empty());
}

TEST(Http, HeaderNamesAreCaseInsensitive) {
  const ParseResult r =
      parse("GET / HTTP/1.1\r\nX-MiXeD-CaSe:  padded value \r\n\r\n");
  ASSERT_EQ(r.status, 200);
  ASSERT_NE(r.request.header("x-mixed-case"), nullptr);
  EXPECT_EQ(*r.request.header("x-mixed-case"), "padded value");
  EXPECT_EQ(r.request.header("absent"), nullptr);
}

TEST(Http, ParsesPostBodyByContentLength) {
  const ParseResult r = parse(post("/v1/run", "{\"scenario\":\"x\"}"));
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.request.method, "POST");
  EXPECT_EQ(r.request.body, "{\"scenario\":\"x\"}");
}

TEST(Http, RejectsMalformedFraming) {
  EXPECT_EQ(parse("").status, 400);                        // empty
  EXPECT_EQ(parse("GET /\r\n\r\n").status, 400);           // no version
  EXPECT_EQ(parse("GET / HTTP/2 extra\r\n\r\n").status, 400);
  EXPECT_EQ(parse("GET / HTTP/9.9\r\n\r\n").status, 400);  // bad version
  EXPECT_EQ(parse("G@T / HTTP/1.1\r\n\r\n").status, 400);  // bad method
  EXPECT_EQ(parse("GET nopath HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nno-colon-line\r\n\r\n").status, 400);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nbad name: v\r\n\r\n").status, 400);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\n").status, 400);      // EOF mid-head
}

TEST(Http, RejectsBadContentLength) {
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").status,
            400);
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n").status,
            400);
  // Declared 10, delivered 4, then EOF.
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabcd").status,
            400);
  // Bytes beyond the declared length on a one-request connection.
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nabcd").status,
            400);
}

TEST(Http, RejectsOversizedBodyBeforeReadingIt) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  const ParseResult r = read_http_request(
      source_from("POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n"), limits);
  EXPECT_EQ(r.status, 413);
}

TEST(Http, RejectsOversizedHead) {
  HttpLimits limits;
  limits.max_head_bytes = 64;
  const std::string big(200, 'a');
  const ParseResult r = read_http_request(
      source_from("GET / HTTP/1.1\r\nX-Big: " + big + "\r\n\r\n"), limits);
  EXPECT_EQ(r.status, 431);
}

TEST(Http, ParsesChunkedBodiesAndRejectsOtherCodings) {
  const ParseResult r = parse(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n");
  ASSERT_EQ(r.status, 200) << r.error;
  EXPECT_EQ(r.request.body, "hello world");
  // Only chunked is implemented; other codings are answered 501, and a
  // message carrying both length declarations is a smuggling vector.
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n").status,
            501);
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                  "Content-Length: 3\r\n\r\n0\r\n\r\n")
                .status,
            400);
}

TEST(Http, ReportsTimeoutAs408) {
  const ByteSource stalled = [](char*, std::size_t) -> long { return -1; };
  EXPECT_EQ(read_http_request(stalled, HttpLimits{}).status, 408);
}

TEST(Http, SerializesResponseWithFramingHeaders) {
  HttpResponse resp;
  resp.status = 503;
  resp.body = "{}";
  resp.extra_headers.emplace_back("Retry-After", "1");
  const std::string raw = serialize_http_response(resp);
  EXPECT_NE(raw.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(raw.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(raw.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(raw.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(raw.find("Connection: close\r\n\r\n{}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// API documents and request decoding
// ---------------------------------------------------------------------------

TEST(Api, ParsesRunRequestWithDefaults) {
  const auto r = parse_run_request(R"({"scenario": "promise-cycle"})");
  EXPECT_EQ(r.scenario, "promise-cycle");
  EXPECT_EQ(r.options.seed, 42u);
  EXPECT_EQ(r.options.size, 0);
  EXPECT_EQ(r.options.trials, 0);
  const auto full = parse_run_request(
      R"({"scenario": "x", "seed": 7, "size": 3, "trials": 9,
          "family": "cycle", "fault_profile": "chaos"})");
  EXPECT_EQ(full.options.seed, 7u);
  EXPECT_EQ(full.options.size, 3);
  EXPECT_EQ(full.options.trials, 9);
  EXPECT_EQ(full.options.family, "cycle");
  EXPECT_EQ(full.options.faults, "chaos");
}

TEST(Api, RejectsBadRunRequests) {
  for (const char* bad : {
           "",                                   // empty body
           "not json",                           // malformed JSON
           "[1, 2]",                             // not an object
           "{}",                                 // scenario missing
           R"({"scenario": 3})",                 // wrong type
           R"({"scenario": ""})",                // empty name
           R"({"scenario": "x", "seed": -1})",   // negative
           R"({"scenario": "x", "seed": 1.5})",  // non-integer
           R"({"scenario": "x", "trails": 2})",  // typoed field
       }) {
    EXPECT_THROW(parse_run_request(bad), Error) << "accepted: " << bad;
  }
}

TEST(Api, ParsesSweepRequestSizes) {
  const auto r = parse_sweep_request(
      R"({"scenario": "promise-cycle", "sizes": [6, 8], "trials": 2})");
  EXPECT_EQ(r.scenario, "promise-cycle");
  EXPECT_EQ(r.options.sizes, (std::vector<int>{6, 8}));
  EXPECT_EQ(r.options.trials, 2);
  EXPECT_FALSE(r.options.timing);
  EXPECT_EQ(r.options.pool, nullptr);
  EXPECT_THROW(parse_sweep_request(R"({"scenario": "x", "sizes": []})"),
               Error);
  EXPECT_THROW(parse_sweep_request(R"({"scenario": "x", "sizes": [-1]})"),
               Error);
  EXPECT_THROW(parse_sweep_request(R"({"scenario": "x", "size": 4})"),
               Error);  // run's field, not sweep's
}

TEST(Api, ScenariosDocumentMirrorsRegistry) {
  const std::string doc = scenarios_document();
  const JsonValue v = parse_json(doc);  // valid JSON by construction
  ASSERT_NE(v.find("scenarios"), nullptr);
  const auto& items = v.find("scenarios")->items();
  ASSERT_EQ(items.size(), cli::scenario_registry().size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].find("name")->as_string(),
              cli::scenario_registry()[i].name);
  }
}

TEST(Api, VersionDocumentCarriesSchemaAndGraphCore) {
  const JsonValue v = parse_json(version_document());
  EXPECT_EQ(v.find("tool")->as_string(), "locald-version");
  EXPECT_EQ(v.find("schema_version")->as_integer(), kSchemaVersion);
  EXPECT_EQ(v.find("graph_core")->as_string(), kGraphCoreId);
  ASSERT_NE(v.find("build"), nullptr);
  EXPECT_NE(v.find("build")->find("standard"), nullptr);
}

TEST(Api, EveryDocumentCarriesTheSchemaVersion) {
  for (const std::string& doc :
       {scenarios_document(), families_document(), version_document(),
        run_document("promise-cycle", {}, nullptr),
        error_document(418, "teapot")}) {
    const JsonValue v = parse_json(doc);
    ASSERT_NE(v.find("schema_version"), nullptr) << doc;
    EXPECT_EQ(v.find("schema_version")->as_integer(), kSchemaVersion);
  }
}

TEST(Api, RunDocumentIsDeterministicAndParseable) {
  cli::ScenarioOptions serial;
  serial.seed = 7;
  bool ok1 = false;
  bool ok2 = false;
  const std::string a = run_document("promise-cycle", serial, &ok1);
  const std::string b = run_document("promise-cycle", serial, &ok2);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  const JsonValue v = parse_json(a);
  EXPECT_EQ(v.find("scenario")->as_string(), "promise-cycle");
  EXPECT_EQ(v.find("seed")->as_integer(), 7);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_FALSE(v.find("output")->as_string().empty());
}

TEST(Api, RunDocumentRejectsUnknownScenario) {
  EXPECT_THROW(run_document("no-such-scenario", {}, nullptr),
               cli::UnknownScenario);
}

// ---------------------------------------------------------------------------
// Scenario resolution: the one check behind `locald run|sweep` and
// POST /v1/run|/v1/sweep
// ---------------------------------------------------------------------------

// Which rejection `resolve_scenario` raised: "unknown" (404 / exit 2),
// "error" (400 / exit 2), or "none".
std::string rejection(const std::string& name, const std::string& family,
                      const std::string& faults) {
  try {
    cli::resolve_scenario(name, family, faults);
  } catch (const cli::UnknownScenario&) {
    return "unknown";
  } catch (const Error&) {
    return "error";
  }
  return "none";
}

TEST(ResolveScenario, RejectsUnknownNamesAndUndeclaredSelectors) {
  EXPECT_EQ(rejection("no-such", "", ""), "unknown");
  EXPECT_EQ(rejection("no-such", "cycle", ""), "unknown");
  EXPECT_EQ(rejection("promise-cycle", "cycle", ""), "error");
  EXPECT_EQ(rejection("table1-matrix", "", "chaos"), "error");
  EXPECT_EQ(rejection("family-workload", "", "chaos"), "error");
  EXPECT_EQ(rejection("promise-cycle", "", ""), "none");
  // table1-matrix declares --family (its A*-agreement instances).
  EXPECT_EQ(rejection("table1-matrix", "cycle", ""), "none");
  EXPECT_EQ(rejection("family-workload", "cycle", ""), "none");
  EXPECT_EQ(rejection("fault-robustness", "torus", "chaos"), "none");
  // Selectors that fail at every size: unknown names and parameters,
  // malformed text and out-of-range explicit values.
  EXPECT_EQ(rejection("family-workload", "nosuch", ""), "error");
  EXPECT_EQ(rejection("table1-matrix", "cycle:girth=3", ""), "error");
  EXPECT_EQ(rejection("family-workload", "cycle:n", ""), "error");
  EXPECT_EQ(rejection("family-workload", "cycle:n=2", ""), "error");
  EXPECT_EQ(rejection("fault-robustness", "", "nosuch"), "error");
  EXPECT_EQ(rejection("fault-robustness", "", "drop:per-mille=5000"),
            "error");
  // A size mapping never overrides explicit values, so a selector that
  // resolves at size 0 is not rejected up front.
  EXPECT_EQ(rejection("fault-robustness", "cycle:n=5", "drop:attempts=2"),
            "none");
  EXPECT_EQ(&cli::resolve_scenario("family-workload", "cycle", ""),
            cli::find_scenario("family-workload"));
}

// ---------------------------------------------------------------------------
// Routing (no sockets; Server::handle is the workers' exact path)
// ---------------------------------------------------------------------------

HttpRequest make_request(std::string method, std::string target,
                         std::string body = "") {
  HttpRequest r;
  r.method = std::move(method);
  r.target = std::move(target);
  r.version = "HTTP/1.1";
  r.body = std::move(body);
  return r;
}

TEST(Routing, HealthzAndMetricsAndScenarios) {
  Server server{ServeOptions{}};
  EXPECT_EQ(server.handle(make_request("GET", "/v1/healthz")).status, 200);
  EXPECT_EQ(server.handle(make_request("GET", "/v1/metrics")).status, 200);
  const HttpResponse version =
      server.handle(make_request("GET", "/v1/version"));
  EXPECT_EQ(version.status, 200);
  EXPECT_EQ(version.body, version_document());
  const HttpResponse scenarios =
      server.handle(make_request("GET", "/v1/scenarios"));
  EXPECT_EQ(scenarios.status, 200);
  EXPECT_EQ(scenarios.body, scenarios_document());
}

TEST(Routing, FaultsCatalogMatchesDocumentBuilder) {
  Server server{ServeOptions{}};
  const HttpResponse faults = server.handle(make_request("GET", "/v1/faults"));
  EXPECT_EQ(faults.status, 200);
  EXPECT_EQ(faults.body, faults_document());
  // Every registered profile appears by name in the catalog.
  EXPECT_NE(faults.body.find("\"none\""), std::string::npos);
  EXPECT_NE(faults.body.find("\"drop\""), std::string::npos);
  EXPECT_NE(faults.body.find("\"chaos\""), std::string::npos);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/faults")).status, 405);
}

TEST(Routing, MethodAndPathErrors) {
  Server server{ServeOptions{}};
  const HttpResponse wrong_method =
      server.handle(make_request("POST", "/v1/healthz"));
  EXPECT_EQ(wrong_method.status, 405);
  ASSERT_FALSE(wrong_method.extra_headers.empty());
  EXPECT_EQ(wrong_method.extra_headers.front().second, "GET");
  EXPECT_EQ(server.handle(make_request("GET", "/v1/run")).status, 405);
  EXPECT_EQ(server.handle(make_request("GET", "/nope")).status, 404);
}

// Selectors the scenario does not declare: promise-cycle takes no family,
// table1-matrix (which does take one) takes no fault profile.
constexpr const char* kUndeclaredFamily =
    R"({"scenario": "promise-cycle", "family": "cycle"})";
constexpr const char* kUndeclaredFaults =
    R"({"scenario": "table1-matrix", "fault_profile": "chaos"})";

// The `error` field of an error document.
std::string error_of(const HttpResponse& r) {
  const JsonValue doc = parse_json(r.body);
  const JsonValue* error = doc.find("error");
  return error == nullptr ? std::string() : error->as_string();
}

// What `resolve_scenario` says about a request; the HTTP error bodies and
// the CLI's stderr carry exactly this text.
std::string resolver_message(const std::string& name,
                             const std::string& family) {
  try {
    cli::resolve_scenario(name, family, "");
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(Routing, RunRequestErrorsMapToStatuses) {
  Server server{ServeOptions{}};
  for (const char* path : {"/v1/run", "/v1/sweep"}) {
    for (const char* body : {kUndeclaredFamily, kUndeclaredFaults}) {
      const HttpResponse r = server.handle(make_request("POST", path, body));
      EXPECT_EQ(r.status, 400) << path << " " << body;
      EXPECT_NE(error_of(r).find("does not take"), std::string::npos)
          << r.body;
    }
    EXPECT_EQ(
        error_of(server.handle(make_request("POST", path, kUndeclaredFamily))),
        resolver_message("promise-cycle", "cycle"));
    EXPECT_EQ(error_of(server.handle(
                  make_request("POST", path, R"({"scenario": "missing"})"))),
              resolver_message("missing", ""));
    // A selector no size can resolve carries the selector resolver's text.
    const HttpResponse unknown_family = server.handle(make_request(
        "POST", path, R"({"scenario":"family-workload","family":"nosuch"})"));
    EXPECT_EQ(unknown_family.status, 400) << path;
    EXPECT_EQ(error_of(unknown_family),
              resolver_message("family-workload", "nosuch"));
    EXPECT_NE(error_of(unknown_family).find("unknown graph family"),
              std::string::npos);
  }
  EXPECT_EQ(server.handle(make_request("POST", "/v1/run", "{bad")).status,
            400);
  EXPECT_EQ(server
                .handle(make_request("POST", "/v1/run",
                                     R"({"scenario": "missing"})"))
                .status,
            404);
  EXPECT_EQ(server
                .handle(make_request("POST", "/v1/sweep",
                                     R"({"scenario": "missing"})"))
                .status,
            404);
}

TEST(Routing, ServeOptionsAreValidated) {
  ServeOptions bad_workers;
  bad_workers.workers = 0;
  EXPECT_THROW(Server{bad_workers}, Error);
  ServeOptions bad_queue;
  bad_queue.max_queue = 0;
  EXPECT_THROW(Server{bad_queue}, Error);
  ServeOptions bad_port;
  bad_port.port = 70000;
  EXPECT_THROW(Server{bad_port}, Error);
}

// ---------------------------------------------------------------------------
// Live-socket integration
// ---------------------------------------------------------------------------

ServeOptions test_options() {
  ServeOptions o;
  o.port = 0;  // ephemeral
  return o;
}

TEST(ServerSocket, ServesHealthzAndErrorsOverRealSockets) {
  Server server{test_options()};
  server.start();
  EXPECT_GT(server.port(), 0);
  const ClientResponse health = request(server.port(), get("/v1/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(parse_json(health.body).find("status")->as_string(), "ok");

  EXPECT_EQ(request(server.port(), get("/v1/nope")).status, 404);
  EXPECT_EQ(request(server.port(), post("/v1/run", "{bad")).status, 400);
  EXPECT_EQ(request(server.port(),
                    post("/v1/run", R"({"scenario": "missing"})"))
                .status,
            404);

  // Oversized upload: rejected from the Content-Length header alone.
  ServeOptions small = test_options();
  small.limits.max_body_bytes = 32;
  Server tiny{small};
  tiny.start();
  const int fd = connect_to(tiny.port());
  send_raw(fd, "POST /v1/run HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
  const ClientResponse too_big = split_response(read_to_eof(fd));
  ::close(fd);
  EXPECT_EQ(too_big.status, 413);
  tiny.stop();
  server.stop();
}

TEST(ServerSocket, ScenariosEndpointMatchesCliDocument) {
  Server server{test_options()};
  server.start();
  const ClientResponse r = request(server.port(), get("/v1/scenarios"));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, scenarios_document());
  server.stop();
}

TEST(ServerSocket, ConcurrentIdenticalRequestsAreByteIdentical) {
  ServeOptions options = test_options();
  options.threads = 2;  // shared pool in play
  options.workers = 4;  // genuine request concurrency
  Server server{options};
  server.start();

  // The serial, cache-less reference — what the one-shot CLI would print.
  const std::string reference = run_document("promise-halting", {}, nullptr);

  const std::string wire =
      post("/v1/run", R"({"scenario": "promise-halting"})");
  constexpr int kClients = 4;
  constexpr int kRequestsEach = 3;
  std::vector<std::string> bodies(kClients * kRequestsEach);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsEach; ++i) {
        const ClientResponse r = request(server.port(), wire);
        if (r.status != 200) failures.fetch_add(1);
        bodies[static_cast<std::size_t>(c * kRequestsEach + i)] = r.body;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const std::string& body : bodies) {
    // Identical across concurrency AND identical to the serial CLI bytes:
    // the shared pool + shared cache are invisible in the response.
    EXPECT_EQ(body, reference);
  }
  server.stop();
}

TEST(ServerSocket, SecondIdenticalRequestHitsTheSharedCache) {
  Server server{test_options()};
  server.start();
  const std::string wire =
      post("/v1/run", R"({"scenario": "promise-halting"})");
  ASSERT_EQ(request(server.port(), wire).status, 200);  // warm-up
  ASSERT_EQ(request(server.port(), wire).status, 200);

  const ClientResponse metrics =
      request(server.port(), get("/v1/metrics"));
  ASSERT_EQ(metrics.status, 200);
  const JsonValue m = parse_json(metrics.body);
  const JsonValue* cache = m.find("cache");
  ASSERT_NE(cache, nullptr);
  // The warmed cache must answer the second run's balls from memory; the
  // acceptance bar for the serving layer's raison d'être.
  EXPECT_GT(cache->find("hits")->as_integer(), 0);
  EXPECT_GT(cache->find("entries")->as_integer(), 0);
  EXPECT_EQ(m.find("requests_total")->as_integer(), 3);
  // The canonicalization-engine counters ride along (process-wide
  // monotonic: the cache-keyed runs above canonicalized balls).
  const JsonValue* canon = m.find("canon");
  ASSERT_NE(canon, nullptr);
  EXPECT_GT(canon->find("forms")->as_integer(), 0);
  server.stop();
}

TEST(ServerSocket, ShedsLoadWith503WhenTheQueueIsFull) {
  ServeOptions options = test_options();
  options.workers = 1;
  options.max_queue = 1;
  options.read_timeout_ms = 60000;  // the stalled socket must not 408 early
  Server server{options};
  server.start();

  // Occupy the only worker: a request that never finishes arriving.
  const int stalled = connect_to(server.port());
  send_raw(stalled, "POST /v1/run HTTP/1.1\r\n");
  auto gauge_is = [&](std::uint64_t in_flight, std::uint64_t queued) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      const MetricsSnapshot m = server.metrics();
      if (m.in_flight == in_flight && m.queue_depth == queued) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };
  ASSERT_TRUE(gauge_is(1, 0));  // worker busy on the stalled connection

  // Fill the queue's single slot with another idle connection.
  const int queued = connect_to(server.port());
  ASSERT_TRUE(gauge_is(1, 1));

  // The next connection must be shed at the door.
  const ClientResponse shed = request(server.port(), get("/v1/healthz"));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.head.find("Retry-After: 1"), std::string::npos);
  EXPECT_GE(server.metrics().rejected_total, 1u);

  // Release the worker; the queued connection now gets served.
  ::close(stalled);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool drained = false;
  while (std::chrono::steady_clock::now() < deadline && !drained) {
    drained = server.metrics().queue_depth == 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(drained);
  send_raw(queued, get("/v1/healthz"));
  EXPECT_EQ(split_response(read_to_eof(queued)).status, 200);
  ::close(queued);
  server.stop();
}

// ---------------------------------------------------------------------------
// Streamed sweeps
// ---------------------------------------------------------------------------

TEST(ServerSocket, StreamedSweepChunksReassembleToTheBufferedDocument) {
  const std::string body =
      R"({"scenario": "promise-cycle", "sizes": [6, 8], "trials": 2, "seed": 7})";
  // The determinism contract's fixed point: the in-process document built
  // with no pool and no cache. Every transport below must reproduce it.
  const auto request = parse_sweep_request(body);
  const std::string reference =
      sweep_document(request.scenario, request.options, nullptr);
  ASSERT_FALSE(reference.empty());

  for (const int threads : {1, 2}) {
    ServeOptions options = test_options();
    options.threads = threads;
    Server server{options};
    server.start();

    // HTTP/1.1: chunked transfer, one chunk per flush boundary (prelude,
    // each finished cell, postlude) — at least 4 frames for a 2-cell grid.
    const int fd = connect_to(server.port());
    send_raw(fd, post("/v1/sweep", body));
    const StreamedResponse streamed = decode_chunked(read_to_eof(fd));
    ::close(fd);
    EXPECT_EQ(streamed.status, 200) << "threads=" << threads;
    EXPECT_GE(streamed.chunks.size(), 4u) << "threads=" << threads;
    EXPECT_EQ(streamed.body, reference) << "threads=" << threads;

    // HTTP/1.0 clients cannot parse chunked framing; they get the same
    // bytes buffered behind a Content-Length.
    const int fd10 = connect_to(server.port());
    send_raw(fd10, "POST /v1/sweep HTTP/1.0\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body);
    const ClientResponse buffered = split_response(read_to_eof(fd10));
    ::close(fd10);
    EXPECT_EQ(buffered.status, 200) << "threads=" << threads;
    EXPECT_NE(buffered.head.find("Content-Length: "), std::string::npos);
    EXPECT_EQ(buffered.body, reference) << "threads=" << threads;
    server.stop();
  }
}

// A streamed response is several small writes: the head, then one chunk
// per flush boundary. With Nagle's algorithm on, each write after the first
// waits for the previous one's ACK, and on a keep-alive connection the
// client delays that ACK (~40 ms on Linux) — so every streamed sweep after
// the first stalled. TCP_NODELAY on accepted sockets removes the stall.
TEST(ServerSocket, KeepAliveStreamedSweepsAreNotStalledByNagle) {
  Server server{test_options()};
  server.start();
  const std::string body =
      R"({"scenario": "promise-cycle", "sizes": [6, 8, 10], "trials": 1})";
  const std::string keep_alive_post =
      "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  const int fd = connect_to(server.port());
  double fastest_ms = 1e9;
  for (int i = 0; i < 6; ++i) {
    const auto start = std::chrono::steady_clock::now();
    send_raw(fd, keep_alive_post);
    // Read up to the terminating zero-length chunk; the connection stays
    // open for the next request.
    std::string raw;
    char buf[4096];
    while (raw.find("\r\n\r\n") == std::string::npos ||
           !raw.ends_with("\r\n0\r\n\r\n")) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "request " << i;
      raw.append(buf, static_cast<std::size_t>(n));
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    const StreamedResponse streamed = decode_chunked(raw);
    ASSERT_EQ(streamed.status, 200);
    ASSERT_GE(streamed.chunks.size(), 4u);
    // The first request on a connection is answered in quick-ACK mode, so
    // only the later ones show the stall.
    if (i > 0) fastest_ms = std::min(fastest_ms, ms);
  }
  ::close(fd);
  server.stop();
  EXPECT_LT(fastest_ms, 20.0);
}

TEST(ServerSocket, StreamedSweepValidationFailuresAnswerBuffered) {
  Server server{test_options()};
  server.start();
  // Pre-head validation failures must arrive as ordinary Content-Length
  // error documents, never as a committed 200 chunk stream.
  const ClientResponse unknown = request(
      server.port(), post("/v1/sweep", R"({"scenario": "no-such"})"));
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.head.find("Transfer-Encoding"), std::string::npos);
  const ClientResponse malformed =
      request(server.port(), post("/v1/sweep", "{"));
  EXPECT_EQ(malformed.status, 400);
  EXPECT_EQ(malformed.head.find("Transfer-Encoding"), std::string::npos);
  for (const char* body : {kUndeclaredFamily, kUndeclaredFaults}) {
    const ClientResponse r = request(server.port(), post("/v1/sweep", body));
    EXPECT_EQ(r.status, 400) << body;
    EXPECT_EQ(r.head.find("Transfer-Encoding"), std::string::npos) << body;
    EXPECT_NE(r.body.find("does not take"), std::string::npos) << r.body;
  }
  const ClientResponse bad_selector = request(
      server.port(),
      post("/v1/sweep", R"({"scenario": "fault-robustness",)"
                        R"( "fault_profile": "nosuch", "sizes": [10]})"));
  EXPECT_EQ(bad_selector.status, 400);
  EXPECT_EQ(bad_selector.head.find("Transfer-Encoding"), std::string::npos);
  EXPECT_NE(bad_selector.body.find("unknown fault profile"), std::string::npos)
      << bad_selector.body;
  server.stop();
}

TEST(ServerSocket, MidStreamDisconnectLeavesGaugesConsistent) {
  ServeOptions options = test_options();
  options.workers = 1;  // a leaked slot would visibly wedge this server
  Server server{options};
  server.start();

  // A sweep big enough to still be streaming when the client vanishes.
  const std::string body =
      R"({"scenario": "promise-cycle", "sizes": [6, 8, 10, 12, 14], "trials": 48, "seed": 3})";
  const int fd = connect_to(server.port());
  send_raw(fd, post("/v1/sweep", body));
  char buf[128];
  ASSERT_GT(::recv(fd, buf, sizeof(buf), 0), 0);  // the stream has started
  ::close(fd);  // ...and the client is gone mid-stream

  // The worker notices on a failed chunk write, abandons the sweep, and
  // releases its slot: both gauges must return to zero, nothing leaked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool settled = false;
  while (std::chrono::steady_clock::now() < deadline && !settled) {
    const MetricsSnapshot m = server.metrics();
    settled = m.in_flight == 0 && m.queue_depth == 0;
    if (!settled) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(settled);

  // The single worker is free again and /v1/metrics agrees with itself:
  // the metrics connection is the only one in flight, the queue is empty.
  const ClientResponse metrics = request(server.port(), get("/v1/metrics"));
  ASSERT_EQ(metrics.status, 200);
  const JsonValue m = parse_json(metrics.body);
  EXPECT_EQ(m.find("in_flight")->as_integer(), 1);
  EXPECT_EQ(m.find("queue_depth")->as_integer(), 0);
  server.stop();
}

// ---------------------------------------------------------------------------
// Observability surfaces
// ---------------------------------------------------------------------------

// Simple unlabeled samples from a Prometheus exposition: name -> value text.
std::map<std::string, std::string> prometheus_samples(
    const std::string& text) {
  std::map<std::string, std::string> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name.find('{') != std::string::npos) continue;  // labeled child
    samples[name] = line.substr(space + 1);
  }
  return samples;
}

TEST(ServerSocket, PrometheusEndpointAgreesWithJsonMetrics) {
  Server server{test_options()};
  server.start();
  // Give the cache and canon counters something to count.
  ASSERT_EQ(request(server.port(),
                    post("/v1/run", R"({"scenario": "promise-halting"})"))
                .status,
            200);
  ASSERT_EQ(request(server.port(),
                    post("/v1/run", R"({"scenario": "promise-halting"})"))
                .status,
            200);

  const ClientResponse prom = request(server.port(), get("/metrics"));
  ASSERT_EQ(prom.status, 200);
  EXPECT_NE(prom.head.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  // Exposition shape: HELP/TYPE pairs for the core families, a histogram
  // closed by its mandatory +Inf bucket.
  EXPECT_NE(prom.body.find("# HELP locald_http_requests_total "),
            std::string::npos);
  EXPECT_NE(prom.body.find("# TYPE locald_http_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(prom.body.find("# TYPE locald_http_request_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(
      prom.body.find("locald_http_request_seconds_bucket{le=\"+Inf\"} "),
      std::string::npos);

  const ClientResponse json = request(server.port(), get("/v1/metrics"));
  ASSERT_EQ(json.status, 200);
  const JsonValue m = parse_json(json.body);
  const auto samples = prometheus_samples(prom.body);

  // The two surfaces render the same instruments. Compare the counters a
  // GET scrape cannot itself move: cache and canonicalization totals.
  EXPECT_EQ(samples.at("locald_cache_hits_total"),
            std::to_string(m.find("cache")->find("hits")->as_integer()));
  EXPECT_EQ(samples.at("locald_cache_misses_total"),
            std::to_string(m.find("cache")->find("misses")->as_integer()));
  EXPECT_EQ(samples.at("locald_canon_forms_total"),
            std::to_string(m.find("canon")->find("forms")->as_integer()));
  EXPECT_EQ(
      samples.at("locald_canon_census_balls_total"),
      std::to_string(m.find("canon")->find("census_balls")->as_integer()));

  // The process section is populated on both surfaces.
  EXPECT_GT(m.find("process")->find("peak_rss_kb")->as_integer(), 0);
  EXPECT_GE(m.find("process")->find("uptime_seconds")->as_double(), 0.0);
  EXPECT_GT(std::stoll(samples.at("locald_process_peak_rss_kb")), 0);
  server.stop();
}

TEST(ServerSocket, AccessLogRecordsEveryRequest) {
  const std::string log_path = "test_server_access.log";
  std::remove(log_path.c_str());
  ServeOptions options = test_options();
  options.access_log_path = log_path;
  Server server{options};
  server.start();
  ASSERT_EQ(request(server.port(),
                    post("/v1/run", R"({"scenario": "promise-halting"})"))
                .status,
            200);
  ASSERT_EQ(request(server.port(), get("/nope")).status, 404);
  server.stop();  // joins workers: every finished request is flushed

  std::ifstream in(log_path);
  std::string line;
  std::vector<JsonValue> lines;
  while (std::getline(in, line)) {
    lines.push_back(parse_json(line));
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("method")->as_string(), "POST");
  EXPECT_EQ(lines[0].find("path")->as_string(), "/v1/run");
  EXPECT_EQ(lines[0].find("status")->as_integer(), 200);
  EXPECT_GT(lines[0].find("bytes")->as_integer(), 0);
  EXPECT_GE(lines[0].find("duration_ms")->as_double(), 0.0);
  EXPECT_GE(lines[0].find("worker")->as_integer(), 0);
  EXPECT_GE(lines[0].find("cache_hits")->as_integer(), 0);
  EXPECT_EQ(lines[1].find("method")->as_string(), "GET");
  EXPECT_EQ(lines[1].find("path")->as_string(), "/nope");
  EXPECT_EQ(lines[1].find("status")->as_integer(), 404);
  std::remove(log_path.c_str());
}

TEST(ServerSocket, TraceOutWritesChromeTraceOnStop) {
  const std::string trace_path = "test_server_trace.json";
  std::remove(trace_path.c_str());
  ServeOptions options = test_options();
  options.trace_out = trace_path;
  Server server{options};
  server.start();
  ASSERT_EQ(request(server.port(),
                    post("/v1/run", R"({"scenario": "promise-halting"})"))
                .status,
            200);
  server.stop();  // disables the session and writes the file

  std::ifstream in(trace_path);
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue root = parse_json(buf.str());
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_request = false;
  bool saw_run_document = false;
  for (const JsonValue& e : events->items()) {
    const std::string& name = e.find("name")->as_string();
    saw_request = saw_request || name == "http-request";
    saw_run_document = saw_run_document || name == "run-document";
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_run_document);
  std::remove(trace_path.c_str());
}

// ---------------------------------------------------------------------------
// Multi-process serving: writer + follower over one shared store
// ---------------------------------------------------------------------------

// A self-cleaning store directory for the shared-store tests.
struct StoreTempDir {
  std::string path;
  StoreTempDir() {
    std::string tmpl = "/tmp/locald-serve-store-XXXXXX";
    LOCALD_CHECK(::mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
    path = tmpl;
  }
  ~StoreTempDir() {
    DIR* dir = ::opendir(path.c_str());
    if (dir != nullptr) {
      while (dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          ::unlink((path + "/" + name).c_str());
        }
      }
      ::closedir(dir);
    }
    ::rmdir(path.c_str());
  }
};

TEST(ServerSocket, WriterAndFollowerShareOneStoreByteIdentically) {
  StoreTempDir dir;
  ServeOptions writer_options = test_options();
  writer_options.store_path = dir.path;
  writer_options.store_shards = 4;
  Server writer{writer_options};
  writer.start();

  // A second writer on the same directory must fail fast at start() —
  // before any socket binds — with the lease held by the first.
  Server conflicted{writer_options};
  try {
    conflicted.start();
    FAIL() << "second writer must be rejected while the lease is held";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("live writer"),
              std::string::npos);
  }

  ServeOptions follower_options = writer_options;
  follower_options.store_follower = true;
  Server follower{follower_options};
  follower.start();

  // Warm the store through the writer, then ask the follower the same
  // question: its answer comes off the shared log via tail refresh and the
  // bodies must be byte-identical.
  const std::string wire =
      post("/v1/run", R"({"scenario": "promise-halting", "seed": 7})");
  const ClientResponse from_writer = request(writer.port(), wire);
  ASSERT_EQ(from_writer.status, 200);
  const ClientResponse from_follower = request(follower.port(), wire);
  ASSERT_EQ(from_follower.status, 200);
  EXPECT_EQ(from_follower.body, from_writer.body);

  // Both processes report their role on /v1/metrics; the follower's store
  // section carries the tail-refresh counters.
  const JsonValue writer_metrics =
      parse_json(request(writer.port(), get("/v1/metrics")).body);
  EXPECT_EQ(writer_metrics.find("store")->find("role")->as_string(),
            "writer");
  const JsonValue follower_metrics =
      parse_json(request(follower.port(), get("/v1/metrics")).body);
  EXPECT_EQ(follower_metrics.find("store")->find("role")->as_string(),
            "follower");
  EXPECT_GE(
      follower_metrics.find("store")->find("tail_refreshes")->as_integer(),
      1);
  EXPECT_GT(follower_metrics.find("cache")->find("store_hits")->as_integer(),
            0);

  // The role gauge reaches the Prometheus surface too. (Both servers share
  // this process's registry and the follower registered last — last
  // registration wins the export — so only its value is asserted here; the
  // one-process-per-role case is covered by the CI serve smoke.)
  const std::string follower_prom =
      request(follower.port(), get("/metrics")).body;
  EXPECT_NE(follower_prom.find("locald_store_follower 1"),
            std::string::npos);

  // The follower outliving the writer keeps serving from the shared log.
  writer.stop();
  const ClientResponse after = request(follower.port(), wire);
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(after.body, from_writer.body);
  follower.stop();
}

}  // namespace
}  // namespace locald::server
