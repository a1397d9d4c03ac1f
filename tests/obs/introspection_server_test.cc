// Introspection server endpoint tests: handler rendering for all four
// endpoints, the /healthz stall watchdog, one real-socket HTTP round trip,
// concurrent /metrics scrapes racing telemetry writers (the TSan target),
// and the bit-identity contract — a scheduler run with the server up and
// progress armed must match the server-off run exactly.

#include "obs/introspection_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/best_config.h"
#include "core/pipeline.h"
#include "models/cost_model.h"
#include "obs/run_progress.h"
#include "sim/dataset.h"
#include "util/status.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::obs {
namespace {

/// Arms progress recording for a test body and restores the previous state
/// (and a clean "idle" phase) on exit.
class ScopedProgress {
 public:
  ScopedProgress() : previous_(ProgressEnabled()) { SetProgressEnabled(true); }
  ~ScopedProgress() {
    RunProgress::Global().EndRun();
    RunProgress::Global().SetPhase("idle");
    SetProgressEnabled(previous_);
  }

 private:
  const bool previous_;
};

std::unique_ptr<IntrospectionServer> StartOrDie(
    IntrospectionServer::Options options = {}) {
  StatusOr<std::unique_ptr<IntrospectionServer>> server =
      IntrospectionServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(*server);
}

TEST(IntrospectionServerTest, EphemeralPortIsReported) {
  auto server = StartOrDie();
  EXPECT_GT(server->port(), 0);
  EXPECT_LE(server->port(), 65535);
}

TEST(IntrospectionServerTest, StartRejectsPortOutsideRange) {
  for (const int port : {-1, 65536, 70000, INT_MAX, INT_MIN}) {
    IntrospectionServer::Options options;
    options.port = port;
    EXPECT_EQ(IntrospectionServer::Start(options).status().code(),
              StatusCode::kInvalidArgument)
        << "port " << port;
  }
}

/// Runs InitIntrospectionFromEnv in a fresh child process (its result is
/// memoized per process) with OTIF_METRICS_PORT=`port` and exits 0 when the
/// server stayed disabled, 3 when it started.
void InitWithMetricsPortAndExit(const char* port) {
  setenv("OTIF_METRICS_PORT", port, /*overwrite=*/1);
  std::_Exit(InitIntrospectionFromEnv() == nullptr ? 0 : 3);
}

TEST(IntrospectionEnvDeathTest, MalformedMetricsPortLeavesServerDisabled) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* port : {"abc", "80x", "1.5", "70000", "-1",
                           "99999999999999999999"}) {
    EXPECT_EXIT(InitWithMetricsPortAndExit(port), ::testing::ExitedWithCode(0),
                "OTIF_METRICS_PORT=.* is not a port")
        << "OTIF_METRICS_PORT=" << port;
  }
  // Control: a valid port (0 = ephemeral) starts the server.
  EXPECT_EXIT(InitWithMetricsPortAndExit("0"), ::testing::ExitedWithCode(3),
              "listening on 127.0.0.1:");
}

/// Runs InitIntrospectionFromEnv in a fresh child process with only
/// OTIF_PROGRESS_SEC=`seconds` set and exits 3 when it started the progress
/// logger (which arms progress recording), 0 when it left it off.
void InitWithProgressSecAndExit(const char* seconds) {
  unsetenv("OTIF_METRICS_PORT");
  setenv("OTIF_PROGRESS_SEC", seconds, /*overwrite=*/1);
  SetProgressEnabled(false);
  InitIntrospectionFromEnv();
  std::_Exit(ProgressEnabled() ? 3 : 0);
}

/// Runs InitIntrospectionFromEnv in a fresh child process with an ephemeral
/// server and OTIF_STALL_SEC=`seconds`; exits 0 when /healthz reports the
/// default 30 s stall window, 4 when it reports 7.5 s, 5 otherwise.
void InitWithStallSecAndExit(const char* seconds) {
  unsetenv("OTIF_PROGRESS_SEC");
  setenv("OTIF_METRICS_PORT", "0", /*overwrite=*/1);
  setenv("OTIF_STALL_SEC", seconds, /*overwrite=*/1);
  IntrospectionServer* server = InitIntrospectionFromEnv();
  if (server == nullptr) std::_Exit(6);
  const std::string body = server->Handle("/healthz").body;
  if (body.find("\"stall_window_seconds\": 30") != std::string::npos) {
    std::_Exit(0);
  }
  std::_Exit(body.find("\"stall_window_seconds\": 7.5") != std::string::npos
                 ? 4
                 : 5);
}

TEST(IntrospectionEnvDeathTest, MalformedSecondsKnobsKeepDefaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* seconds : {"0.05junk", "abc", "nan", "-1", "1e400", "0"}) {
    EXPECT_EXIT(InitWithProgressSecAndExit(seconds),
                ::testing::ExitedWithCode(0),
                "OTIF_PROGRESS_SEC=.* is not a positive number of seconds")
        << "OTIF_PROGRESS_SEC=" << seconds;
    EXPECT_EXIT(InitWithStallSecAndExit(seconds),
                ::testing::ExitedWithCode(0),
                "OTIF_STALL_SEC=.* is not a positive number of seconds")
        << "OTIF_STALL_SEC=" << seconds;
  }
  // Controls: well-formed values take effect.
  EXPECT_EXIT(InitWithProgressSecAndExit("0.05"), ::testing::ExitedWithCode(3),
              "");
  EXPECT_EXIT(InitWithStallSecAndExit("7.5"), ::testing::ExitedWithCode(4),
              "listening on 127.0.0.1:");
}

TEST(IntrospectionServerTest, MetricsEndpointServesExposition) {
  telemetry::MetricsRegistry::Global()
      .GetCounter("obs_test.metrics_probe")
      ->Add(1);
  auto server = StartOrDie();
  const IntrospectionServer::Response r = server->Handle("/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("0.0.4"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE "), std::string::npos);
  EXPECT_NE(r.body.find("otif_obs_test_metrics_probe"), std::string::npos);
  // The scrape refreshes the buffer-pool mirror gauges before rendering.
  EXPECT_NE(r.body.find("otif_mem_pool_hits"), std::string::npos);
}

TEST(IntrospectionServerTest, StatuszReportsRunAndClips) {
  ScopedProgress scoped;
  RunProgress::Global().BeginRun("statusz_unit", {5, 5});
  RunProgress::Global().OnFramesCommitted(0, 2);
  auto server = StartOrDie();
  const IntrospectionServer::Response r = server->Handle("/statusz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(r.body.find("\"phase\""), std::string::npos);
  EXPECT_NE(r.body.find("statusz_unit"), std::string::npos);
  EXPECT_NE(r.body.find("\"committed\""), std::string::npos);
  EXPECT_NE(r.body.find("\"pool\""), std::string::npos);
  EXPECT_NE(r.body.find("\"quarantined\""), std::string::npos);
}

TEST(IntrospectionServerTest, HealthzFlipsToStalledAndBack) {
  ScopedProgress scoped;
  IntrospectionServer::Options options;
  options.stall_seconds = 0.02;
  auto server = StartOrDie(options);

  // No run in flight: idle is healthy.
  IntrospectionServer::Response r = server->Handle("/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("idle"), std::string::npos);

  // A run that stops committing trips the watchdog after stall_seconds.
  RunProgress::Global().BeginRun("healthz_unit", {100});
  RunProgress::Global().OnFramesCommitted(0, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  r = server->Handle("/healthz");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("stalled"), std::string::npos);

  // A fresh commit revives it; ending the run returns it to idle.
  RunProgress::Global().OnFramesCommitted(0, 1);
  EXPECT_EQ(server->Handle("/healthz").status, 200);
  RunProgress::Global().EndRun();
  r = server->Handle("/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("idle"), std::string::npos);
}

TEST(IntrospectionServerTest, TracezReportsArmedState) {
  auto server = StartOrDie();
  const IntrospectionServer::Response r = server->Handle("/tracez");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(r.body.find("\"timeline_armed\""), std::string::npos);
  EXPECT_NE(r.body.find("\"spans\""), std::string::npos);
}

TEST(IntrospectionServerTest, IndexAndNotFound) {
  auto server = StartOrDie();
  const IntrospectionServer::Response index = server->Handle("/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  EXPECT_NE(index.body.find("/profilez"), std::string::npos);
  EXPECT_EQ(server->Handle("/nope").status, 404);
  // Parameters an endpoint does not define are rejected, not ignored: a
  // scraper typo ("?seconds=2" on the wrong path) should fail loudly.
  EXPECT_EQ(server->Handle("/healthz?verbose=1").status, 400);
}

TEST(IntrospectionServerTest, ParseQueryStringTable) {
  struct Case {
    const char* query;
    bool ok;
  };
  const Case cases[] = {
      {"", true},
      {"a=1", true},
      {"a=1&b=two", true},
      {"a=", true},       // Empty value is fine; empty key is not.
      {"a==b", true},     // Value containing '='.
      {"=1", false},      // Empty key.
      {"a", false},       // No '='.
      {"a=1&", false},    // Trailing separator.
      {"&a=1", false},    // Leading separator.
      {"a=1&&b=2", false},  // Empty segment.
      {"a=1&a=2", false},   // Repeated key.
  };
  for (const Case& c : cases) {
    std::map<std::string, std::string> params;
    EXPECT_EQ(ParseQueryString(c.query, &params), c.ok) << c.query;
  }
  std::map<std::string, std::string> params;
  ASSERT_TRUE(ParseQueryString("n=25&fmt=json", &params));
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params["n"], "25");
  EXPECT_EQ(params["fmt"], "json");
}

TEST(IntrospectionServerTest, RandomizedQueryStringsMatchGrammar) {
  // Strings drawn from the query grammar's alphabet (keys, '=', '&') plus a
  // few bytes it passes through verbatim, checked against the grammar
  // written out directly. Fixed seed: any failure replays exactly.
  const std::string alphabet = "abn=&=&1%+?# \x01";
  std::mt19937 rng(20261018);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    const size_t len = std::uniform_int_distribution<size_t>(0, 16)(rng);
    std::string query;
    for (size_t i = 0; i < len; ++i) {
      query += alphabet[std::uniform_int_distribution<size_t>(
          0, alphabet.size() - 1)(rng)];
    }

    // The grammar: empty, or '&'-separated segments, each a non-empty key,
    // '=', and a value; no key twice.
    std::map<std::string, std::string> expected;
    bool valid = true;
    if (!query.empty()) {
      size_t pos = 0;
      while (valid) {
        const size_t amp = query.find('&', pos);
        const std::string segment = query.substr(
            pos, amp == std::string::npos ? std::string::npos : amp - pos);
        const size_t eq = segment.find('=');
        valid = eq != std::string::npos && eq > 0 &&
                expected.emplace(segment.substr(0, eq), segment.substr(eq + 1))
                    .second;
        if (amp == std::string::npos) break;
        pos = amp + 1;
      }
    }

    std::map<std::string, std::string> params = {{"stale", "entry"}};
    const bool ok = ParseQueryString(query, &params);
    ASSERT_EQ(ok, valid) << "query: \"" << query << "\"";
    if (ok) {
      ++accepted;
      EXPECT_EQ(params, expected) << "query: \"" << query << "\"";
    } else {
      ++rejected;
    }
  }
  // The generator reaches both outcomes often.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

/// Splits `s` at every `sep`, keeping empty pieces ("a,,b" -> a, "", b).
std::vector<std::string> SplitKeepingEmpty(const std::string& s, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (;;) {
    const size_t at = s.find(sep, start);
    pieces.push_back(s.substr(start, at == std::string::npos ? at : at - start));
    if (at == std::string::npos) return pieces;
    start = at + 1;
  }
}

/// /tracez's n: strtoll's decimal grammar over the whole value (leading
/// C-locale whitespace, an optional sign, at least one digit, nothing
/// after), then the range [1, 10000].
bool TracezLimitInRange(const std::string& v) {
  size_t i = 0;
  while (i < v.size() && std::strchr(" \t\n\v\f\r", v[i]) != nullptr &&
         v[i] != '\0') {
    ++i;
  }
  bool negative = false;
  if (i < v.size() && (v[i] == '+' || v[i] == '-')) negative = v[i++] == '-';
  if (i == v.size()) return false;
  int64_t n = 0;
  for (; i < v.size(); ++i) {
    if (v[i] < '0' || v[i] > '9') return false;
    n = std::min<int64_t>(n * 10 + (v[i] - '0'), 1000000);
  }
  if (negative) n = -n;
  return n >= 1 && n <= 10000;
}

/// The status the request grammar gives a request target (path plus
/// optional '?' query), for every path except /profilez.
int ExpectedTargetStatus(const std::string& target) {
  const size_t q = target.find('?');
  const std::string path = target.substr(0, q);
  // Query: empty, or '&'-separated key=value segments with non-empty,
  // distinct keys.
  std::map<std::string, std::string> params;
  if (q != std::string::npos && q + 1 < target.size()) {
    for (const std::string& segment :
         SplitKeepingEmpty(target.substr(q + 1), '&')) {
      const size_t eq = segment.find('=');
      if (eq == std::string::npos || eq == 0 ||
          !params.emplace(segment.substr(0, eq), segment.substr(eq + 1))
               .second) {
        return 400;
      }
    }
  }
  if (path == "/tracez") {
    if (const auto it = params.find("n"); it != params.end()) {
      if (!TracezLimitInRange(it->second)) return 400;
      params.erase(it);
    }
    return params.empty() ? 200 : 400;
  }
  if (!params.empty()) return 400;
  for (const char* known : {"/metrics", "/statusz", "/healthz", "/", ""}) {
    if (path == known) return 200;
  }
  return 404;
}

/// The status the request grammar gives a whole request head: a request
/// line (up to the first CRLF, or the whole head when it has none and is
/// under the head cap) of single-space-separated tokens, at least two; an
/// uppercase-letter method, of which only GET and HEAD are served; the
/// second token is the target. Tokens after the target (the version among
/// them) and the header lines are not read.
int ExpectedStatus(const std::string& head) {
  const size_t crlf = head.find("\r\n");
  if (crlf == std::string::npos &&
      head.size() >= IntrospectionServer::kMaxHeadBytes) {
    return 400;
  }
  const std::vector<std::string> tokens =
      SplitKeepingEmpty(head.substr(0, crlf), ' ');
  if (tokens.size() < 2 || tokens[0].empty()) return 400;
  for (const char c : tokens[0]) {
    if (c < 'A' || c > 'Z') return 400;
  }
  if (tokens[0] != "GET" && tokens[0] != "HEAD") return 405;
  return ExpectedTargetStatus(tokens[1]);
}

TEST(IntrospectionServerTest, RandomizedRequestLinesMatchGrammar) {
  // Request heads assembled from valid and near-miss methods, targets,
  // versions, separators and terminators, about half of them then hit by
  // byte mutations, checked against the grammar written out above. Fixed
  // seed: any failure replays exactly. /profilez is left out of the
  // targets (a bare one blocks for a two-second profile).
  IntrospectionServer::Options options;
  options.stall_seconds = 1e9;  // /healthz never reports a stall here.
  auto server = StartOrDie(options);
  // Served methods are listed several times so most heads reach routing.
  const std::vector<std::string> methods = {
      "GET",  "GET",    "GET",     "GET", "HEAD", "HEAD", "POST",
      "DELETE", "OPTIONS", "get", "Get", "GETT", "GE",   "G3T",
      "",     "GET/",   "HEAD\t"};
  const std::vector<std::string> targets = {
      "/", "", "/metrics", "/statusz", "/healthz", "/tracez",
      "/tracez?n=5", "/tracez?n=0", "/tracez?n=10001", "/tracez?n=+7",
      "/tracez?n=5x", "/tracez?n=5&n=6", "/tracez?m=1", "/tracez?n=",
      "/metrics?", "/metrics?a=1", "/healthz?&", "/statusz?x", "/?a=b",
      "/nope", "/metricsz", "//metrics", "metrics", "/healthz/", "/Metrics",
      "/tracez/", "/statusz.json"};
  const std::vector<std::string> versions = {
      "HTTP/1.1", "HTTP/1.0", "HTTP/2", "http/1.1", "HTTP/1.1 extra", ""};
  const std::vector<std::string> separators = {" ", " ", "  ", "\t", ""};
  const std::vector<std::string> terminators = {
      "\r\n\r\n", "\r\n", "\n", "", "\r\nHost: x\r\n\r\n", "\r"};
  const std::string mutation_bytes(" \r\n?&=/AGa1\t\x7f\xff\0", 15);
  std::mt19937 rng(20261019);
  const auto pick = [&rng](const std::vector<std::string>& from) {
    return from[std::uniform_int_distribution<size_t>(0, from.size() - 1)(
        rng)];
  };
  std::map<int, int> statuses;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string head;
    if (iter % 500 == 499) {
      // A head that never ends its request line within the cap.
      head = "GET /" + std::string(IntrospectionServer::kMaxHeadBytes, 'a');
    } else {
      head = pick(methods) + pick(separators) + pick(targets) +
             pick(separators) + pick(versions) + pick(terminators);
    }
    if (std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
      const int mutations = std::uniform_int_distribution<int>(1, 3)(rng);
      for (int m = 0; m < mutations; ++m) {
        const char byte = mutation_bytes[std::uniform_int_distribution<size_t>(
            0, mutation_bytes.size() - 1)(rng)];
        const size_t at =
            std::uniform_int_distribution<size_t>(0, head.size())(rng);
        switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
          case 0:  // Insert.
            head.insert(head.begin() + static_cast<std::ptrdiff_t>(at), byte);
            break;
          case 1:  // Replace.
            if (at < head.size()) head[at] = byte;
            break;
          default:  // Delete.
            if (at < head.size()) {
              head.erase(head.begin() + static_cast<std::ptrdiff_t>(at));
            }
        }
      }
    }
    const std::vector<std::string> tokens =
        SplitKeepingEmpty(head.substr(0, head.find("\r\n")), ' ');
    if (tokens.size() >= 2 && tokens[1].rfind("/profilez", 0) == 0) continue;
    const int expected = ExpectedStatus(head);
    ASSERT_EQ(server->HandleRequest(head).status, expected)
        << "head: \"" << head << "\"";
    ++statuses[expected];
  }
  // The generator reaches every status the grammar can give, often.
  for (const int status : {200, 400, 404, 405}) {
    EXPECT_GT(statuses[status], 100) << "status " << status;
  }
}

TEST(IntrospectionServerTest, TracezLimitParameter) {
  telemetry::timeline::SetCollectionEnabled(true);
  for (int i = 0; i < 5; ++i) {
    OTIF_SPAN("obs_test/tracez_span");
  }
  auto server = StartOrDie();
  const IntrospectionServer::Response r = server->Handle("/tracez?n=2");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"span_count\": 2"), std::string::npos) << r.body;
  // Range and grammar violations are 400s, not silent defaults.
  EXPECT_EQ(server->Handle("/tracez?n=0").status, 400);
  EXPECT_EQ(server->Handle("/tracez?n=10001").status, 400);
  EXPECT_EQ(server->Handle("/tracez?n=abc").status, 400);
  EXPECT_EQ(server->Handle("/tracez?n=5x").status, 400);
  EXPECT_EQ(server->Handle("/tracez?m=5").status, 400);
  EXPECT_EQ(server->Handle("/tracez?n=5&n=6").status, 400);
  telemetry::timeline::SetCollectionEnabled(false);
}

TEST(IntrospectionServerTest, ProfilezValidatesParameters) {
  auto server = StartOrDie();
  EXPECT_EQ(server->Handle("/profilez?seconds=0").status, 400);
  EXPECT_EQ(server->Handle("/profilez?seconds=-1").status, 400);
  EXPECT_EQ(server->Handle("/profilez?seconds=61").status, 400);
  EXPECT_EQ(server->Handle("/profilez?seconds=nan").status, 400);
  EXPECT_EQ(server->Handle("/profilez?seconds=2x").status, 400);
  EXPECT_EQ(server->Handle("/profilez?fmt=svg").status, 400);
  EXPECT_EQ(server->Handle("/profilez?bogus=1").status, 400);
}

TEST(IntrospectionServerTest, ProfilezServesAWindow) {
  auto server = StartOrDie();
  const IntrospectionServer::Response r =
      server->Handle("/profilez?seconds=0.05&fmt=json");
  // Sanitizer builds refuse to profile; the endpoint maps that to 503.
  if (r.status == 503) {
    EXPECT_NE(r.body.find("profiler unavailable"), std::string::npos);
    GTEST_SKIP() << "profiler unavailable: " << r.body;
  }
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(r.body.find("\"hz\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"stacks\""), std::string::npos) << r.body;
  // Collapsed is the default rendering.
  const IntrospectionServer::Response collapsed =
      server->Handle("/profilez?seconds=0.05");
  EXPECT_EQ(collapsed.status, 200);
  EXPECT_NE(collapsed.content_type.find("text/plain"), std::string::npos);
}

TEST(IntrospectionServerTest, RequestLineEdgeCases) {
  auto server = StartOrDie();
  // Well-formed GET dispatches to the endpoint.
  EXPECT_EQ(server->HandleRequest("GET /healthz HTTP/1.1\r\n\r\n").status,
            200);
  EXPECT_EQ(server->HandleRequest("HEAD / HTTP/1.1\r\n\r\n").status, 200);
  // Known methods we do not serve: 405. Garbage methods: 400.
  EXPECT_EQ(server->HandleRequest("POST /metrics HTTP/1.1\r\n\r\n").status,
            405);
  EXPECT_EQ(server->HandleRequest("DELETE / HTTP/1.1\r\n\r\n").status, 405);
  EXPECT_EQ(server->HandleRequest("get / HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(server->HandleRequest("\r\n\r\n").status, 400);
  EXPECT_EQ(server->HandleRequest("GET\r\n\r\n").status, 400);
  EXPECT_EQ(server->HandleRequest("").status, 400);
  // A request line that never terminates within the head cap is rejected,
  // not buffered further.
  const std::string oversized(IntrospectionServer::kMaxHeadBytes, 'A');
  const IntrospectionServer::Response r = server->HandleRequest(oversized);
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("too large"), std::string::npos);
  // An oversized but line-terminated request still routes (long paths 404).
  const std::string long_path =
      "GET /" + std::string(IntrospectionServer::kMaxHeadBytes, 'b') +
      " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(server->HandleRequest(long_path).status, 404);
}

TEST(IntrospectionServerTest, RequestsAreCountedPerEndpointAndStatus) {
  auto server = StartOrDie();
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  const int64_t healthz_before =
      registry.GetCounter("obs.http.requests.healthz.200")->value();
  const int64_t other_before =
      registry.GetCounter("obs.http.requests.other.404")->value();
  const int64_t bad_before =
      registry.GetCounter("obs.http.requests.other.400")->value();
  const auto scrapes_before =
      registry.GetHistogram("obs.scrape_seconds")->count();
  server->HandleRequest("GET /healthz HTTP/1.1\r\n\r\n");
  server->HandleRequest("GET /unknown/path HTTP/1.1\r\n\r\n");
  server->HandleRequest("bogus\r\n\r\n");
  EXPECT_EQ(registry.GetCounter("obs.http.requests.healthz.200")->value(),
            healthz_before + 1);
  EXPECT_EQ(registry.GetCounter("obs.http.requests.other.404")->value(),
            other_before + 1);
  EXPECT_EQ(registry.GetCounter("obs.http.requests.other.400")->value(),
            bad_before + 1);
  EXPECT_EQ(registry.GetHistogram("obs.scrape_seconds")->count(),
            scrapes_before + 3);
  // The self-instrumentation shows up in the exposition like any metric.
  const IntrospectionServer::Response metrics = server->Handle("/metrics");
  EXPECT_NE(metrics.body.find("otif_obs_http_requests_healthz_200"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("otif_obs_scrape_seconds"), std::string::npos);
}

TEST(IntrospectionServerTest, RealSocketRoundTrip) {
  auto server = StartOrDie();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: "), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\n"), std::string::npos);
}

// The TSan satellite: scrapers hammer every endpoint while writer threads
// mutate the telemetry registry and the progress counters. Correctness here
// is "no data race, no crash, always a well-formed response".
TEST(IntrospectionServerTest, ConcurrentScrapesRaceTelemetryUpdates) {
  ScopedProgress scoped;
  auto server = StartOrDie();
  telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter("obs_test.race_counter");
  telemetry::Histogram* hist = telemetry::MetricsRegistry::Global()
      .GetHistogram("obs_test.race_hist", {0.5, 1.0});
  RunProgress::Global().BeginRun("race_unit", {1000, 1000});

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Add(1);
        hist->Record((i % 3) * 0.4);
        RunProgress::Global().OnFramesCommitted(t, 1);
        ++i;
      }
    });
  }
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      const char* paths[] = {"/metrics", "/statusz", "/healthz", "/tracez"};
      for (int i = 0; i < 50; ++i) {
        const IntrospectionServer::Response r =
            server->Handle(paths[(t + i) % 4]);
        EXPECT_TRUE(r.status == 200 || r.status == 503);
        EXPECT_FALSE(r.body.empty());
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

/// Exact equality across the observables the scheduler tests also compare:
/// the simulated clock per category and every track of every clip.
void ExpectSameResult(const core::EvalResult& a, const core::EvalResult& b) {
  for (int cat = 0; cat < models::kNumCostCategories; ++cat) {
    const auto category = static_cast<models::CostCategory>(cat);
    EXPECT_EQ(a.clock.Seconds(category), b.clock.Seconds(category))
        << "category " << cat;
  }
  ASSERT_EQ(a.tracks_per_clip.size(), b.tracks_per_clip.size());
  for (size_t clip = 0; clip < a.tracks_per_clip.size(); ++clip) {
    const std::vector<track::Track>& ta = a.tracks_per_clip[clip];
    const std::vector<track::Track>& tb = b.tracks_per_clip[clip];
    ASSERT_EQ(ta.size(), tb.size()) << "clip " << clip;
    for (size_t t = 0; t < ta.size(); ++t) {
      EXPECT_EQ(ta[t].id, tb[t].id);
      ASSERT_EQ(ta[t].detections.size(), tb[t].detections.size());
      for (size_t d = 0; d < ta[t].detections.size(); ++d) {
        const track::Detection& da = ta[t].detections[d];
        const track::Detection& db = tb[t].detections[d];
        EXPECT_EQ(da.frame, db.frame);
        EXPECT_EQ(da.box.cx, db.box.cx);
        EXPECT_EQ(da.box.cy, db.box.cy);
        EXPECT_EQ(da.box.w, db.box.w);
        EXPECT_EQ(da.box.h, db.box.h);
        EXPECT_EQ(da.confidence, db.confidence);
      }
    }
  }
}

/// Counts tracks; the runs compared here only need a pure accuracy function.
double TrackCount(const std::vector<std::vector<track::Track>>& tracks) {
  size_t n = 0;
  for (const auto& clip : tracks) n += clip.size();
  return static_cast<double>(n);
}

TEST(IntrospectionServerTest, RunsAreBitIdenticalWithServerOnOrOff) {
  std::vector<sim::Clip> clips;
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (int c = 0; c < 2; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 1, c), 60));
  }
  core::PipelineConfig config;
  config.tracker = core::TrackerKind::kSort;
  config.frame_batch = 4;

  // Reference: server down, progress off.
  SetProgressEnabled(false);
  ThreadPool::SetDefaultThreads(4);
  const core::EvalResult off =
      core::EvaluateConfig(config, nullptr, clips, TrackCount);

  // Same run with the server scraping and progress armed throughout.
  {
    ScopedProgress scoped;
    auto server = StartOrDie();
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        server->Handle("/metrics");
        server->Handle("/statusz");
        server->Handle("/healthz");
      }
    });
    const core::EvalResult on =
        core::EvaluateConfig(config, nullptr, clips, TrackCount);
    stop.store(true, std::memory_order_relaxed);
    scraper.join();
    ExpectSameResult(off, on);
  }
  ThreadPool::SetDefaultThreads(1);
}

}  // namespace
}  // namespace otif::obs
