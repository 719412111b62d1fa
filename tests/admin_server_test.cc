/// \file admin_server_test.cc
/// \brief End-to-end tests of the embedded admin HTTP endpoint, the
/// Prometheus exposition, readiness semantics, and the JSONL exporter —
/// all over real loopback sockets.

#include "obs/admin_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/stats.h"
#include "serve/admin_endpoints.h"
#include "serve/paygo_server.h"
#include "strict_json.h"

namespace paygo {
namespace {

/// The same tiny three-domain corpus the serving tests use.
SchemaCorpus SmallCorpus() {
  SchemaCorpus corpus("small");
  corpus.Add(Schema("expedia",
                    {"departure airport", "destination airport",
                     "departing", "returning", "airline"}),
             {"travel"});
  corpus.Add(Schema("orbitz",
                    {"departure airport", "destination", "airline",
                     "passengers"}),
             {"travel"});
  corpus.Add(Schema("kayak",
                    {"departure", "destination airport", "airline", "class"}),
             {"travel"});
  corpus.Add(Schema("dblp", {"title", "authors", "year of publish",
                             "conference name"}),
             {"bibliography"});
  corpus.Add(Schema("citeseer", {"title", "author", "year", "journal"}),
             {"bibliography"});
  corpus.Add(Schema("autotrader", {"make", "model", "year", "price"}),
             {"cars"});
  return corpus;
}

std::unique_ptr<IntegrationSystem> BuildSmallSystem() {
  auto sys = IntegrationSystem::Build(SmallCorpus());
  EXPECT_TRUE(sys.ok()) << sys.status();
  return std::move(*sys);
}

int StatusCodeOf(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..."
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos) return -1;
  return std::atoi(response.c_str() + sp + 1);
}

std::string BodyOf(const std::string& response) {
  const std::size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

std::string HeaderOf(const std::string& response, const std::string& name) {
  std::istringstream is(response.substr(0, response.find("\r\n\r\n")));
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.substr(0, colon) == name) {
      std::size_t b = colon + 1;
      while (b < line.size() && line[b] == ' ') ++b;
      return line.substr(b);
    }
  }
  return "";
}

std::string MustGet(std::uint16_t port, const std::string& target) {
  Result<std::string> response = AdminHttpGet(port, target);
  EXPECT_TRUE(response.ok()) << response.status();
  return response.ok() ? *response : "";
}

/// Sends raw bytes to the admin port and returns the raw response — for
/// deliberately malformed requests AdminHttpGet cannot produce.
std::string RawRequest(std::uint16_t port, const std::string& data) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// --- plain AdminServer: routing, errors, limits ---

TEST(AdminServerTest, ServesHealthzIndexAnd404) {
  AdminServer admin;
  RegisterObsEndpoints(admin);
  ASSERT_TRUE(admin.Start().ok());
  ASSERT_GT(admin.port(), 0);

  const std::string healthz = MustGet(admin.port(), "/healthz");
  EXPECT_EQ(StatusCodeOf(healthz), 200);
  EXPECT_EQ(BodyOf(healthz), "ok\n");
  EXPECT_EQ(HeaderOf(healthz, "Connection"), "close");
  EXPECT_EQ(HeaderOf(healthz, "Content-Length"),
            std::to_string(BodyOf(healthz).size()));

  // GET / lists the registered paths.
  const std::string index = MustGet(admin.port(), "/");
  EXPECT_EQ(StatusCodeOf(index), 200);
  EXPECT_NE(BodyOf(index).find("/metrics"), std::string::npos);
  EXPECT_NE(BodyOf(index).find("/healthz"), std::string::npos);

  const std::string missing = MustGet(admin.port(), "/no-such-page");
  EXPECT_EQ(StatusCodeOf(missing), 404);

  admin.Stop();
  // Idempotent Stop, and the port no longer answers.
  admin.Stop();
  EXPECT_FALSE(AdminHttpGet(admin.port(), "/healthz", 200).ok());
}

TEST(AdminServerTest, RejectsNonGetMalformedAndOversizedRequests) {
  AdminServerOptions options;
  options.max_request_bytes = 1024;
  AdminServer admin(options);
  RegisterObsEndpoints(admin);
  ASSERT_TRUE(admin.Start().ok());

  const std::string post = RawRequest(
      admin.port(),
      "POST /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Length: 2\r\n\r\nhi");
  EXPECT_EQ(StatusCodeOf(post), 405);

  const std::string garbage =
      RawRequest(admin.port(), "this is not http\r\n\r\n");
  EXPECT_EQ(StatusCodeOf(garbage), 400);

  // Headers larger than max_request_bytes are answered 413.
  std::string huge = "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Pad: ";
  huge += std::string(4096, 'x');
  huge += "\r\n\r\n";
  const std::string oversized = RawRequest(admin.port(), huge);
  EXPECT_EQ(StatusCodeOf(oversized), 413);

  admin.Stop();
}

TEST(AdminServerTest, QueryStringIsSplitOffThePath) {
  AdminServer admin;
  admin.Handle("/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.path + "|" + request.query + "|" + request.host;
    return response;
  });
  ASSERT_TRUE(admin.Start().ok());
  const std::string got = MustGet(admin.port(), "/echo?name=hac&k=2");
  EXPECT_EQ(StatusCodeOf(got), 200);
  EXPECT_EQ(BodyOf(got), "/echo|name=hac&k=2|127.0.0.1");
  admin.Stop();
}

// --- Prometheus exposition correctness ---

/// Strict-ish parser for the exposition format: validates line grammar,
/// metric-name charset, and returns samples keyed by "name{labels}".
struct PrometheusScrape {
  std::map<std::string, double> samples;  // "name{labels}" -> value
  std::map<std::string, std::string> types;

  static bool ValidName(const std::string& name) {
    if (name.empty()) return false;
    if (std::isdigit(static_cast<unsigned char>(name[0]))) return false;
    for (char c : name) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
        return false;
      }
    }
    return true;
  }

  static PrometheusScrape Parse(const std::string& text) {
    PrometheusScrape scrape;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty()) {
        ADD_FAILURE() << "blank line in exposition";
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream ls(line.substr(7));
        std::string name, kind;
        ls >> name >> kind;
        EXPECT_TRUE(ValidName(name)) << name;
        EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                    kind == "histogram")
            << kind;
        scrape.types[name] = kind;
        continue;
      }
      if (line[0] == '#') {
        ADD_FAILURE() << "unknown comment: " << line;
        continue;
      }
      // sample: name[{labels}] SP value
      const std::size_t sp = line.rfind(' ');
      if (sp == std::string::npos) {
        ADD_FAILURE() << "malformed sample line: " << line;
        continue;
      }
      const std::string key = line.substr(0, sp);
      const std::string bare = key.substr(0, key.find('{'));
      EXPECT_TRUE(ValidName(bare)) << bare;
      char* end = nullptr;
      const double value = std::strtod(line.c_str() + sp + 1, &end);
      EXPECT_EQ(*end, '\0') << "bad sample value: " << line;
      EXPECT_EQ(scrape.samples.count(key), 0u) << "duplicate sample " << key;
      scrape.samples[key] = value;
    }
    return scrape;
  }

  double at(const std::string& key) const {
    auto it = samples.find(key);
    EXPECT_NE(it, samples.end()) << "missing sample " << key;
    return it == samples.end() ? -1.0 : it->second;
  }
};

TEST(PrometheusExpositionTest, SanitizesNamesAndEmitsConsistentHistograms) {
  StatsRegistry registry;  // private instance: deterministic contents
  registry.GetCounter("paygo.test.merges")->Add(3);
  registry.GetGauge("paygo.test-queue.depth")->Set(-2);
  LatencyHistogram* h = registry.GetHistogram("paygo.test.latency_us");
  h->Record(1);
  h->Record(3);
  h->Record(1000000);

  const std::string text = registry.ToPrometheus();
  PrometheusScrape scrape = PrometheusScrape::Parse(text);

  // Names sanitized to [a-zA-Z0-9_].
  EXPECT_EQ(scrape.types.at("paygo_test_merges"), "counter");
  EXPECT_EQ(scrape.types.at("paygo_test_queue_depth"), "gauge");
  EXPECT_EQ(scrape.types.at("paygo_test_latency_us"), "histogram");
  EXPECT_EQ(scrape.at("paygo_test_merges"), 3.0);
  EXPECT_EQ(scrape.at("paygo_test_queue_depth"), -2.0);

  // Histogram: cumulative buckets, nondecreasing in le order, +Inf equals
  // _count, _sum is the exact sum of samples.
  double prev = 0.0;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const std::string key = "paygo_test_latency_us_bucket{le=\"" +
                            std::to_string(
                                LatencyHistogram::BucketUpperMicros(i)) +
                            "\"}";
    const double cumulative = scrape.at(key);
    EXPECT_GE(cumulative, prev) << key;
    prev = cumulative;
  }
  EXPECT_EQ(scrape.at("paygo_test_latency_us_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_EQ(scrape.at("paygo_test_latency_us_count"), 3.0);
  EXPECT_EQ(scrape.at("paygo_test_latency_us_sum"), 1000004.0);
  // The exact buckets: 1 -> le=1, 3 -> le=4, 1000000 -> le=1048576.
  EXPECT_EQ(scrape.at("paygo_test_latency_us_bucket{le=\"1\"}"), 1.0);
  EXPECT_EQ(scrape.at("paygo_test_latency_us_bucket{le=\"4\"}"), 2.0);
  EXPECT_EQ(scrape.at("paygo_test_latency_us_bucket{le=\"1048576\"}"), 3.0);
}

TEST(PrometheusExpositionTest, ServedMetricsPageParses) {
  ServeOptions options;
  options.admin_port = 0;
  PaygoServer server(BuildSmallSystem(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.admin(), nullptr);
  (void)server.Classify("departure airline");

  const std::string metrics = MustGet(server.admin()->port(), "/metrics");
  EXPECT_EQ(StatusCodeOf(metrics), 200);
  EXPECT_NE(HeaderOf(metrics, "Content-Type").find("text/plain"),
            std::string::npos);
  PrometheusScrape scrape = PrometheusScrape::Parse(BodyOf(metrics));
  // The server's own metrics ride along with the global registry.
  EXPECT_EQ(scrape.types.at("paygo_serve_requests_submitted"), "counter");
  EXPECT_EQ(scrape.types.at("paygo_serve_classify_latency_us"), "histogram");
  EXPECT_GE(scrape.at("paygo_serve_requests_submitted"), 1.0);
  const double count = scrape.at("paygo_serve_classify_latency_us_count");
  EXPECT_EQ(scrape.at("paygo_serve_classify_latency_us_bucket{le=\"+Inf\"}"),
            count);
  server.Stop();
}

// --- JSON pages ---

TEST(AdminEndpointsTest, VarzStatuszSlowzAreStrictJson) {
  ServeOptions options;
  options.admin_port = 0;
  options.slow_query_threshold_us = 0;  // every request qualifies
  PaygoServer server(BuildSmallSystem(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.admin(), nullptr);
  (void)server.Classify("departure airline");
  const std::uint16_t port = server.admin()->port();

  for (const char* target : {"/varz", "/statusz", "/slowz", "/tracez"}) {
    const std::string response = MustGet(port, target);
    EXPECT_EQ(StatusCodeOf(response), 200) << target;
    EXPECT_EQ(HeaderOf(response, "Content-Type"), "application/json")
        << target;
    EXPECT_TRUE(strict_json::IsValid(BodyOf(response)))
        << target << ": " << strict_json::ErrorOf(BodyOf(response));
  }

  const std::string statusz = BodyOf(MustGet(port, "/statusz"));
  EXPECT_NE(statusz.find("\"generation\""), std::string::npos);
  EXPECT_NE(statusz.find("\"queue_capacity\""), std::string::npos);
  EXPECT_NE(statusz.find("\"cache_hit_rate\""), std::string::npos);
  EXPECT_NE(statusz.find("\"ready\": true"), std::string::npos);
  EXPECT_NE(statusz.find("\"substrate_bytes\": " +
                         std::to_string(server.snapshot()->substrate_bytes())),
            std::string::npos)
      << statusz;

  const std::string varz = BodyOf(MustGet(port, "/varz"));
  EXPECT_NE(varz.find("\"stats\""), std::string::npos);
  EXPECT_NE(varz.find("\"server\""), std::string::npos);
  server.Stop();
}

// --- readiness semantics ---

TEST(AdminEndpointsTest, ReadyzFlipsExactlyOnFirstSnapshotInstall) {
  ServeOptions options;
  options.admin_port = 0;
  PaygoServer server(options);  // deferred bootstrap: no snapshot yet
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.admin(), nullptr);
  const std::uint16_t port = server.admin()->port();

  // Alive but not ready: /healthz 200, /readyz 503.
  EXPECT_EQ(StatusCodeOf(MustGet(port, "/healthz")), 200);
  const std::string not_ready = MustGet(port, "/readyz");
  EXPECT_EQ(StatusCodeOf(not_ready), 503);
  EXPECT_NE(BodyOf(not_ready).find("no-snapshot-installed"),
            std::string::npos);
  EXPECT_EQ(server.generation(), 0u);

  // Requests before the install fail cleanly instead of crashing.
  Result<std::vector<DomainScore>> early =
      server.Classify("departure airline");
  EXPECT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  // Install flips readiness exactly once the snapshot is published.
  ASSERT_TRUE(server.InstallSystemAsync(BuildSmallSystem()).get().ok());
  const std::string ready = MustGet(port, "/readyz");
  EXPECT_EQ(StatusCodeOf(ready), 200);
  EXPECT_EQ(BodyOf(ready), "ready\n");
  EXPECT_EQ(server.generation(), 1u);

  Result<std::vector<DomainScore>> scores =
      server.Classify("departure airline");
  EXPECT_TRUE(scores.ok()) << scores.status();
  server.Stop();
}

TEST(AdminEndpointsTest, QueueSaturationMakesReadyzReport503) {
  ServeOptions options;
  options.admin_port = 0;
  options.num_workers = 1;
  options.queue_depth = 4;
  options.ready_queue_watermark = 0.5;  // saturated when depth > 2
  options.queue_timeout_ms = 0;         // don't shed the backlog
  options.artificial_request_delay_us = 50000;
  options.cache_capacity = 0;
  PaygoServer server(BuildSmallSystem(), options);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.admin()->port();

  std::vector<std::future<Result<std::vector<DomainScore>>>> inflight;
  for (int i = 0; i < 8; ++i) {
    inflight.push_back(
        server.ClassifyAsync("query " + std::to_string(i)));
  }
  // With one worker sleeping 50ms per request, the queue stays over the
  // watermark for a couple hundred ms — long enough to observe.
  EXPECT_TRUE(server.Health().queue_saturated) << server.Health().Describe();
  const std::string saturated = MustGet(port, "/readyz");
  EXPECT_EQ(StatusCodeOf(saturated), 503);
  EXPECT_NE(BodyOf(saturated).find("queue-saturated"), std::string::npos);

  for (auto& f : inflight) (void)f.get();
  EXPECT_FALSE(server.Health().queue_saturated);
  EXPECT_EQ(StatusCodeOf(MustGet(port, "/readyz")), 200);
  server.Stop();
}

// --- concurrency: scrapes racing snapshot rebuilds (TSan target) ---

TEST(AdminEndpointsTest, ConcurrentScrapesDuringRebuildsStayConsistent) {
  ServeOptions options;
  options.admin_port = 0;
  PaygoServer server(BuildSmallSystem(), options);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.admin()->port();

  std::atomic<bool> stop{false};
  std::atomic<int> scrape_errors{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      const char* targets[] = {"/metrics", "/readyz", "/statusz"};
      int i = t;
      while (!stop.load(std::memory_order_acquire)) {
        Result<std::string> response =
            AdminHttpGet(port, targets[i++ % 3]);
        if (!response.ok() || StatusCodeOf(*response) >= 500) {
          scrape_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 0; i < 6; ++i) {
    Schema schema;
    schema.source_name = "live-" + std::to_string(i);
    schema.attributes = {"departure city", "destination city",
                         "fare " + std::to_string(i)};
    ASSERT_TRUE(
        server.AddSchemaAsync(std::move(schema), {"travel"}).get().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& s : scrapers) s.join();

  EXPECT_EQ(scrape_errors.load(), 0);
  EXPECT_EQ(server.generation(), 6u);
  // A final scrape reflects the rebuilt state.
  const std::string statusz = BodyOf(MustGet(port, "/statusz"));
  EXPECT_NE(statusz.find("\"generation\": 6"), std::string::npos);
  server.Stop();
}

// --- exporter ---

TEST(MetricsSnapshotterTest, AppendsStrictJsonRecordsWithDeltas) {
  const std::string path =
      testing::TempDir() + "/paygo_exporter_test.jsonl";
  std::remove(path.c_str());

  StatsRegistry registry;
  Counter* requests = registry.GetCounter("paygo.test.requests");
  registry.GetHistogram("paygo.test.latency_us")->Record(100);
  requests->Add(5);

  MetricsSnapshotterOptions options;
  options.path = path;
  options.interval_ms = 10;
  MetricsSnapshotter exporter(registry, options);
  ASSERT_TRUE(exporter.Start().ok());
  // Counter movement across intervals shows up as deltas.
  for (int i = 0; i < 5; ++i) {
    requests->Add(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
  }
  exporter.Stop();
  EXPECT_GE(exporter.records_written(), 1u);
  EXPECT_FALSE(exporter.running());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  bool saw_delta = false;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_TRUE(strict_json::IsValid(line))
        << strict_json::ErrorOf(line) << "\n" << line;
    EXPECT_NE(line.find("\"seq\""), std::string::npos);
    EXPECT_NE(line.find("\"paygo.test.requests\""), std::string::npos);
    EXPECT_NE(line.find("\"paygo.test.latency_us\""), std::string::npos);
    if (line.find("\"delta\": 2") != std::string::npos) saw_delta = true;
  }
  EXPECT_EQ(lines, exporter.records_written());
  EXPECT_TRUE(saw_delta) << "no interval captured a counter delta";
  std::remove(path.c_str());
}

TEST(MetricsSnapshotterTest, FailsCleanlyOnUnwritablePath) {
  StatsRegistry registry;
  MetricsSnapshotterOptions options;
  options.path = "/nonexistent-dir/metrics.jsonl";
  MetricsSnapshotter exporter(registry, options);
  EXPECT_FALSE(exporter.Start().ok());
  EXPECT_FALSE(exporter.running());
  exporter.Stop();  // no-op, must not crash
}

TEST(AdminEndpointsTest, ServerWiresExporterThroughServeOptions) {
  const std::string path =
      testing::TempDir() + "/paygo_server_export_test.jsonl";
  std::remove(path.c_str());

  ServeOptions options;
  options.export_path = path;
  options.export_interval_ms = 10;
  PaygoServer server(BuildSmallSystem(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.exporter(), nullptr);
  (void)server.Classify("departure airline");
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  server.Stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(strict_json::IsValid(line)) << strict_json::ErrorOf(line);
  }
  EXPECT_GE(lines, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace paygo
