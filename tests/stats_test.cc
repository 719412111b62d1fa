#include "obs/stats.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/integration_system.h"
#include "serve/server_metrics.h"
#include "serve/slow_query_log.h"
#include "strict_json.h"

namespace paygo {
namespace {

TEST(CounterTest, AddAndIncrement) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(GaugeTest, SetAddAndNegativeValues) {
  Gauge g;
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(g.value(), -15);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(LatencyHistogramTest, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(0), 1u);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(1), 2u);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(10), 1024u);
  EXPECT_EQ(
      LatencyHistogram::BucketUpperMicros(LatencyHistogram::kNumBuckets - 1),
      LatencyHistogram::kOverflowBoundMicros);
}

TEST(LatencyHistogramTest, CountSumAndMean) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.MeanMicros(), 0.0);
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.SumMicros(), 60u);
  EXPECT_DOUBLE_EQ(h.MeanMicros(), 20.0);
}

TEST(LatencyHistogramTest, PercentileReturnsBucketUpperBound) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(3);   // bucket (2, 4]
  h.Record(1000);                             // bucket (512, 1024]
  EXPECT_EQ(h.PercentileMicros(0.5), 4u);
  EXPECT_EQ(h.PercentileMicros(0.98), 4u);
  EXPECT_EQ(h.PercentileMicros(1.0), 1024u);
}

TEST(LatencyHistogramTest, FullPercentileSaturatesAtOverflowBound) {
  LatencyHistogram h;
  h.Record(5);
  // Far beyond the overflow bound: the documented contract is that p = 1.0
  // reports kOverflowBoundMicros, not the true maximum.
  h.Record(LatencyHistogram::kOverflowBoundMicros * 10);
  EXPECT_EQ(h.PercentileMicros(1.0), LatencyHistogram::kOverflowBoundMicros);
  // Out-of-range p is clamped rather than UB.
  EXPECT_EQ(h.PercentileMicros(7.0), LatencyHistogram::kOverflowBoundMicros);
  EXPECT_EQ(h.PercentileMicros(-1.0), h.PercentileMicros(0.0));
}

TEST(LatencyHistogramTest, ResetZeroesEverything) {
  LatencyHistogram h;
  h.Record(100);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.SumMicros(), 0u);
  EXPECT_EQ(h.PercentileMicros(0.5), 0u);
}

TEST(StatsRegistryTest, GetReturnsStablePointers) {
  StatsRegistry reg;
  Counter* a = reg.GetCounter("paygo.test.counter");
  Counter* b = reg.GetCounter("paygo.test.counter");
  EXPECT_EQ(a, b);
  a->Add(7);
  EXPECT_EQ(b->value(), 7u);
  Gauge* g = reg.GetGauge("paygo.test.gauge");
  LatencyHistogram* h = reg.GetHistogram("paygo.test.hist");
  EXPECT_NE(g, nullptr);
  EXPECT_NE(h, nullptr);
  // Reset zeroes values but keeps registrations (and pointer validity).
  reg.ResetForTest();
  EXPECT_EQ(a->value(), 0u);
  EXPECT_EQ(reg.GetCounter("paygo.test.counter"), a);
}

TEST(StatsRegistryTest, ToTextListsMetricsSorted) {
  StatsRegistry reg;
  reg.GetCounter("paygo.b.counter")->Add(2);
  reg.GetGauge("paygo.a.gauge")->Set(-3);
  const std::string text = reg.ToText();
  const std::size_t a_pos = text.find("paygo.a.gauge");
  const std::size_t b_pos = text.find("paygo.b.counter");
  ASSERT_NE(a_pos, std::string::npos) << text;
  ASSERT_NE(b_pos, std::string::npos) << text;
  EXPECT_LT(a_pos, b_pos);
  EXPECT_NE(text.find("-3"), std::string::npos);
}

TEST(StatsRegistryTest, ToJsonIsStrictlyValid) {
  StatsRegistry reg;
  reg.GetCounter("paygo.json.counter")->Add(5);
  reg.GetGauge("paygo.json.gauge")->Set(-12);
  LatencyHistogram* h = reg.GetHistogram("paygo.json.hist");
  h->Record(100);
  h->Record(2000);
  const std::string json = reg.ToJson();
  EXPECT_TRUE(strict_json::IsValid(json))
      << strict_json::ErrorOf(json) << "\n" << json;
  EXPECT_NE(json.find("\"paygo.json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
}

TEST(StatsRegistryTest, EmptyRegistryJsonIsValid) {
  StatsRegistry reg;
  const std::string json = reg.ToJson();
  EXPECT_TRUE(strict_json::IsValid(json)) << strict_json::ErrorOf(json);
}

TEST(StatsRegistryTest, PrometheusSanitizesNamesAndExpandsHistograms) {
  StatsRegistry reg;
  reg.GetCounter("paygo.hac.merges")->Add(3);
  reg.GetHistogram("paygo.serve.latency-us")->Record(50);
  const std::string prom = reg.ToPrometheus();
  // Dots and dashes become underscores; no raw '.' may survive in names.
  EXPECT_NE(prom.find("paygo_hac_merges 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("paygo_serve_latency_us_bucket"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("paygo_serve_latency_us_sum"), std::string::npos);
  EXPECT_NE(prom.find("paygo_serve_latency_us_count 1"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE paygo_hac_merges counter"), std::string::npos);
}

TEST(StatsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&StatsRegistry::Global(), &StatsRegistry::Global());
}

TEST(StatsRegistryTest, BuildPublishesComponentByteGauges) {
  StatsRegistry& reg = StatsRegistry::Global();
  Gauge* features = reg.GetGauge("paygo.features.bytes");
  Gauge* domains = reg.GetGauge("paygo.domains.bytes");
  Gauge* classifier = reg.GetGauge("paygo.classifier.model_bytes");
  features->Set(0);
  domains->Set(0);
  classifier->Set(0);
  SchemaCorpus corpus("gauges");
  corpus.Add(Schema("a", {"departure airport", "airline"}));
  corpus.Add(Schema("b", {"departure", "airline", "class"}));
  corpus.Add(Schema("c", {"title", "author", "year"}));
  auto sys = IntegrationSystem::Build(std::move(corpus));
  ASSERT_TRUE(sys.ok()) << sys.status();
  EXPECT_GT(features->value(), 0);
  EXPECT_GT(domains->value(), 0);
  EXPECT_GT(classifier->value(), 0);
  EXPECT_EQ(features->value(),
            static_cast<std::int64_t>((*sys)->features().MemoryBytes()));
  EXPECT_EQ(domains->value(),
            static_cast<std::int64_t>((*sys)->domains().MemoryBytes()));
  const std::string prom = reg.ToPrometheus();
  EXPECT_NE(prom.find("paygo_features_bytes"), std::string::npos);
  EXPECT_NE(prom.find("paygo_domains_bytes"), std::string::npos);
}

TEST(ServerMetricsTest, ToJsonIsStrictlyValid) {
  ServerMetrics m;
  m.requests_submitted.fetch_add(10);
  m.requests_completed.fetch_add(9);
  m.cache_hits.fetch_add(4);
  m.cache_misses.fetch_add(6);
  m.classify_latency.Record(150);
  m.classify_latency.Record(90000);
  m.keyword_search_latency.Record(20);
  m.structured_latency.Record(7);
  const std::string json = m.ToJson();
  EXPECT_TRUE(strict_json::IsValid(json))
      << strict_json::ErrorOf(json) << "\n" << json;
}

SlowQueryEntry MakeEntry(std::uint64_t trace_id, const char* kind,
                         std::string query, std::uint64_t total_us) {
  SlowQueryEntry e;
  e.trace_id = trace_id;
  e.kind = kind;
  e.query = std::move(query);
  e.total_us = total_us;
  e.snapshot_generation = 1;
  return e;
}

TEST(SlowQueryLogTest, KeepsWorstRequestsSorted) {
  SlowQueryLog log(/*capacity=*/3, /*threshold_us=*/100);
  log.MaybeRecord(MakeEntry(1, "classify", "fast", 50));  // under threshold
  log.MaybeRecord(MakeEntry(2, "classify", "slow-a", 300));
  log.MaybeRecord(MakeEntry(3, "classify", "slow-b", 500));
  log.MaybeRecord(MakeEntry(4, "classify", "slow-c", 200));
  // Log is full at 3: a 150us request is over threshold but not among the
  // worst, so it is counted yet not admitted.
  log.MaybeRecord(MakeEntry(5, "classify", "slow-d", 150));
  log.MaybeRecord(MakeEntry(6, "classify", "slow-e", 400));  // evicts 200
  const std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].total_us, 500u);
  EXPECT_EQ(entries[1].total_us, 400u);
  EXPECT_EQ(entries[2].total_us, 300u);
  EXPECT_EQ(log.OverThresholdCount(), 5u);
  log.Clear();
  EXPECT_TRUE(log.Entries().empty());
  EXPECT_EQ(log.OverThresholdCount(), 0u);
}

TEST(SlowQueryLogTest, ToJsonWithSpansIsStrictlyValid) {
  SlowQueryLog log(/*capacity=*/4, /*threshold_us=*/0);
  SlowQueryEntry e = MakeEntry(9, "keyword_search",
                               "quote\" slash\\ tab\tnl\n\x01", 900);
  e.spans.push_back({"serve.request", 0, 900, 0});
  e.spans.push_back({"serve.queue_wait", 0, 100, 1});
  log.MaybeRecord(std::move(e));
  const std::string json = log.ToJson();
  EXPECT_TRUE(strict_json::IsValid(json))
      << strict_json::ErrorOf(json) << "\n" << json;
  EXPECT_NE(json.find("serve.queue_wait"), std::string::npos);
  const std::string debug = log.DebugString();
  EXPECT_NE(debug.find("serve.request"), std::string::npos);
}

TEST(SlowQueryLogTest, ZeroCapacityNeverRecords) {
  SlowQueryLog log(/*capacity=*/0, /*threshold_us=*/0);
  log.MaybeRecord(MakeEntry(1, "classify", "q", 99999));
  EXPECT_TRUE(log.Entries().empty());
  EXPECT_EQ(log.OverThresholdCount(), 0u);
}

TEST(StrictJsonTest, RejectsMalformedDocuments) {
  EXPECT_TRUE(strict_json::IsValid("{}"));
  EXPECT_TRUE(strict_json::IsValid("[1, 2.5, -3e2, \"x\", null, true]"));
  EXPECT_TRUE(strict_json::IsValid("{\"a\": {\"b\": [0]}}"));
  // The failure modes this harness exists to catch:
  EXPECT_FALSE(strict_json::IsValid("{\"a\": 1,}"));       // trailing comma
  EXPECT_FALSE(strict_json::IsValid("[1, 2,]"));           // trailing comma
  EXPECT_FALSE(strict_json::IsValid("{a: 1}"));            // unquoted key
  EXPECT_FALSE(strict_json::IsValid("{\"a\": 01}"));       // leading zero
  EXPECT_FALSE(strict_json::IsValid("{\"a\": nan}"));      // bare NaN
  EXPECT_FALSE(strict_json::IsValid("{\"a\": 1} extra"));  // trailing junk
  EXPECT_FALSE(strict_json::IsValid("{\"a\": \"unterminated"));
  EXPECT_FALSE(strict_json::IsValid(""));
  EXPECT_FALSE(strict_json::IsValid("{\"a\" 1}"));  // missing colon
}

}  // namespace
}  // namespace paygo
