#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/integration_system.h"
#include "obs/stats.h"
#include "strict_json.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"

namespace paygo {
namespace {

/// Each test starts from a clean, enabled tracer and leaves it disabled.
/// Rings persist for the life of the process, so Clear between tests.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Disable();
    Tracer::ClearAll();
    Tracer::Enable();
  }
  void TearDown() override {
    Tracer::Disable();
    Tracer::SetCurrentTraceId(0);
    Tracer::ClearAll();
  }
};

std::size_t CountOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  Tracer::Disable();
  {
    PAYGO_TRACE_SPAN("noop.outer");
    PAYGO_TRACE_SPAN("noop.inner");
  }
  Tracer::RecordComplete("noop.complete", 0, 5);
  EXPECT_EQ(Tracer::RetainedEventCount(), 0u);
}

TEST_F(TraceTest, SpanEnabledMidScopeDoesNotRecordOnClose) {
  Tracer::Disable();
  {
    // Captured the disabled state at construction; enabling afterwards must
    // not make the destructor record a span it never started timing.
    ScopedSpan span("late.enable");
    Tracer::Enable();
  }
  EXPECT_EQ(Tracer::RetainedEventCount(), 0u);
}

TEST_F(TraceTest, CollectorSeesNestingDepths) {
  SpanCollector collector;
  {
    PAYGO_TRACE_SPAN("outer");
    {
      PAYGO_TRACE_SPAN("middle");
      { PAYGO_TRACE_SPAN("inner"); }
    }
  }
  // Spans complete innermost-first.
  const std::vector<CollectedSpan>& spans = collector.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_STREQ(spans[1].name, "middle");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_STREQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].depth, 0u);
  // Timestamp containment: the outer span brackets the inner ones.
  EXPECT_LE(spans[2].start_us, spans[0].start_us);
  EXPECT_GE(spans[2].start_us + spans[2].dur_us,
            spans[0].start_us + spans[0].dur_us);
  EXPECT_EQ(Tracer::RetainedEventCount(), 3u);
}

TEST_F(TraceTest, NestedCollectorsShadowAndRestore) {
  SpanCollector outer;
  { PAYGO_TRACE_SPAN("before.inner"); }
  {
    SpanCollector inner;
    { PAYGO_TRACE_SPAN("while.inner"); }
    ASSERT_EQ(inner.spans().size(), 1u);
    EXPECT_STREQ(inner.spans()[0].name, "while.inner");
  }
  { PAYGO_TRACE_SPAN("after.inner"); }
  // The outer collector missed the shadowed span but resumed afterwards.
  ASSERT_EQ(outer.spans().size(), 2u);
  EXPECT_STREQ(outer.spans()[0].name, "before.inner");
  EXPECT_STREQ(outer.spans()[1].name, "after.inner");
}

TEST_F(TraceTest, RecordCompleteRoutesToRingAndCollector) {
  SpanCollector collector;
  Tracer::RecordComplete("retro.queue_wait", 100, 40);
  ASSERT_EQ(collector.spans().size(), 1u);
  EXPECT_STREQ(collector.spans()[0].name, "retro.queue_wait");
  EXPECT_EQ(collector.spans()[0].start_us, 100u);
  EXPECT_EQ(collector.spans()[0].dur_us, 40u);
  EXPECT_EQ(Tracer::RetainedEventCount(), 1u);
}

TEST_F(TraceTest, TraceIdTagsRingEvents) {
  Tracer::SetCurrentTraceId(777);
  { PAYGO_TRACE_SPAN("tagged.span"); }
  Tracer::SetCurrentTraceId(0);
  const std::string json = Tracer::ExportChromeTrace();
  EXPECT_NE(json.find("\"trace_id\": 777"), std::string::npos) << json;
}

TEST_F(TraceTest, CrossThreadRecordingLandsInSeparateRings) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        PAYGO_TRACE_SPAN("worker.span");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(Tracer::RetainedEventCount(),
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
  const std::string json = Tracer::ExportChromeTrace();
  EXPECT_EQ(CountOccurrences(json, "\"worker.span\""),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_TRUE(strict_json::IsValid(json)) << strict_json::ErrorOf(json);
}

TEST_F(TraceTest, ConcurrentExportWhileRecordingIsSafe) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      PAYGO_TRACE_SPAN("churn.span");
    }
  });
  for (int i = 0; i < 20; ++i) {
    const std::string json = Tracer::ExportChromeTrace();
    EXPECT_TRUE(strict_json::IsValid(json)) << strict_json::ErrorOf(json);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST_F(TraceTest, RingWrapsAroundKeepingNewestEvents) {
  TraceRing ring(42);
  const std::size_t total = TraceRing::kCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    ring.Append("wrap.span", /*start_us=*/i, /*dur_us=*/1, /*trace_id=*/0,
                /*depth=*/0);
  }
  EXPECT_EQ(ring.total_appended(), total);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), TraceRing::kCapacity);
  // Oldest retained event is the one right after the overwritten prefix.
  EXPECT_EQ(events.front().start_us, 100u);
  EXPECT_EQ(events.back().start_us, total - 1);
  EXPECT_EQ(events.front().tid, 42u);
}

TEST_F(TraceTest, OverflowCountsEachOverwrittenEventAsDropped) {
  Counter* dropped = StatsRegistry::Global().GetCounter("paygo.trace.dropped");
  auto ring = std::make_unique<TraceRing>(43);
  const std::uint64_t before = dropped->value();
  constexpr std::size_t kOverflow = 37;
  for (std::size_t i = 0; i < TraceRing::kCapacity + kOverflow; ++i) {
    ring->Append("drop.span", i, 1, 0, 0);
  }
  EXPECT_EQ(dropped->value() - before, kOverflow);
  // Slots emptied by Clear() hold nothing to lose.
  ring->Clear();
  for (std::size_t i = 0; i < TraceRing::kCapacity; ++i) {
    ring->Append("drop.span", i, 1, 0, 0);
  }
  EXPECT_EQ(dropped->value() - before, kOverflow);
}

TEST_F(TraceTest, ClearDropsRetainedEvents) {
  { PAYGO_TRACE_SPAN("soon.cleared"); }
  ASSERT_GE(Tracer::RetainedEventCount(), 1u);
  Tracer::ClearAll();
  EXPECT_EQ(Tracer::RetainedEventCount(), 0u);
  // The ring stays usable after a clear.
  { PAYGO_TRACE_SPAN("after.clear"); }
  EXPECT_EQ(Tracer::RetainedEventCount(), 1u);
}

TEST_F(TraceTest, ExportIsStrictJsonAndSortedByStart) {
  {
    PAYGO_TRACE_SPAN("export.outer");
    // Ensure the inner span starts on a strictly later microsecond so the
    // sorted export order is deterministic.
    const std::uint64_t t0 = Tracer::NowMicros();
    while (Tracer::NowMicros() == t0) {
    }
    { PAYGO_TRACE_SPAN("export.inner"); }
  }
  const std::string json = Tracer::ExportChromeTrace();
  EXPECT_TRUE(strict_json::IsValid(json)) << strict_json::ErrorOf(json);
  // Chrome trace-event essentials present.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  // The outer span starts first, so it must appear before the inner one.
  const std::size_t outer_pos = json.find("export.outer");
  const std::size_t inner_pos = json.find("export.inner");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
}

/// The collected span named \p name, or nullptr.
const CollectedSpan* FindSpan(const std::vector<CollectedSpan>& spans,
                              const std::string& name) {
  for (const CollectedSpan& span : spans) {
    if (name == span.name) return &span;
  }
  return nullptr;
}

TEST_F(TraceTest, AddSchemaAttributesSimilarityAndAssignment) {
  const SchemaCorpus pool = MakeDdhCorpus({.num_schemas = 61, .seed = 7});
  SchemaCorpus base("trace-base");
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
    base.Add(pool.schema(i), pool.labels(i));
  }
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse_build" : "dense");
    SystemOptions options;
    options.sparse_build = sparse;
    Tracer::Disable();
    auto sys = IntegrationSystem::Build(base, options);
    ASSERT_TRUE(sys.ok()) << sys.status();
    Tracer::Enable();
    SpanCollector collector;
    const std::size_t last = pool.size() - 1;
    ASSERT_TRUE(
        (*sys)->AddSchema(pool.schema(last), pool.labels(last)).ok());
    const CollectedSpan* add = FindSpan(collector.spans(), "system.add_schema");
    ASSERT_NE(add, nullptr);
    for (const char* child :
         {"system.add_schema.similarity", "system.add_schema.assign"}) {
      const CollectedSpan* span = FindSpan(collector.spans(), child);
      ASSERT_NE(span, nullptr) << child;
      EXPECT_EQ(span->depth, add->depth + 1) << child;
      EXPECT_LE(add->start_us, span->start_us) << child;
      EXPECT_GE(add->start_us + add->dur_us, span->start_us + span->dur_us)
          << child;
    }
  }
}

TEST_F(TraceTest, GraphHacIsOneRunSpanOverManyComponents) {
  ManyDomainFeatureOptions gen;
  gen.num_schemas = 320;  // ~10 pseudo-domains, so many tau-components
  const auto features = MakeManyDomainFeatures(gen);
  Tracer::Disable();
  const auto graph = NeighborGraph::Build(features, NeighborGraphOptions{});
  ASSERT_TRUE(graph.ok()) << graph.status();
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Tracer::ClearAll();
    Tracer::Enable();
    HacOptions options;
    options.num_threads = threads;
    const auto result = Hac::RunOnGraph(*graph, options);
    Tracer::Disable();
    ASSERT_TRUE(result.ok()) << result.status();
    std::size_t runs = 0, merges = 0;
    for (const TraceEvent& e : Tracer::SnapshotEvents()) {
      const std::string name = e.name;
      runs += name == "hac.run";
      merges += name == "hac.merge";
    }
    // One span for the call, whatever the component count; every merge of
    // every component (on any pool lane) still gets its own.
    EXPECT_EQ(runs, 1u);
    EXPECT_EQ(merges, result->merges.size());
    EXPECT_GT(result->merges.size(), 0u);
  }
}

TEST_F(TraceTest, NextTraceIdIsUniqueAndNonzero) {
  const std::uint64_t a = Tracer::NextTraceId();
  const std::uint64_t b = Tracer::NextTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace paygo
