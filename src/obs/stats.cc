#include "obs/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace paygo {

namespace {

std::size_t BucketIndexFor(std::uint64_t micros) {
  if (micros <= 1) return 0;
  // Bucket i covers (2^(i-1), 2^i]: index = ceil(log2(micros)).
  const int bits = 64 - __builtin_clzll(micros - 1);
  return std::min<std::size_t>(static_cast<std::size_t>(bits),
                               LatencyHistogram::kNumBuckets - 1);
}

[[noreturn]] void DieKindMismatch(const std::string& name) {
  std::fprintf(stderr,
               "StatsRegistry: metric '%s' already registered as a "
               "different kind\n",
               name.c_str());
  std::abort();
}

}  // namespace

// ------------------------------------------------- shared dump helpers

HistogramSummary SummarizeHistogram(const LatencyHistogram& h) {
  HistogramSummary s;
  s.count = h.Count();
  s.sum_us = h.SumMicros();
  s.mean_us = h.MeanMicros();
  s.p50_us = h.PercentileMicros(0.50);
  s.p95_us = h.PercentileMicros(0.95);
  s.p99_us = h.PercentileMicros(0.99);
  return s;
}

std::string HistogramSummaryJson(const LatencyHistogram& h) {
  const HistogramSummary s = SummarizeHistogram(h);
  std::ostringstream os;
  os << "{\"count\": " << s.count << ", \"sum_us\": " << s.sum_us
     << ", \"mean_us\": " << s.mean_us << ", \"p50_us\": " << s.p50_us
     << ", \"p95_us\": " << s.p95_us << ", \"p99_us\": " << s.p99_us
     << ", \"exemplars\": {";
  bool first = true;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const std::uint64_t id = h.ExemplarTraceId(i);
    if (id == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << LatencyHistogram::BucketUpperMicros(i) << "\": " << id;
  }
  os << "}}";
  return os.str();
}

std::string HistogramSummaryText(const LatencyHistogram& h) {
  const HistogramSummary s = SummarizeHistogram(h);
  std::ostringstream os;
  os << "count=" << s.count << " mean=" << s.mean_us << "us p50=" << s.p50_us
     << "us p95=" << s.p95_us << "us p99=" << s.p99_us << "us";
  return os.str();
}

std::string PrometheusMetricName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

void AppendPrometheusHistogram(std::ostream& os, const std::string& pname,
                               const LatencyHistogram& h) {
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    cumulative += h.BucketCount(i);
    os << pname << "_bucket{le=\"" << LatencyHistogram::BucketUpperMicros(i)
       << "\"} " << cumulative << "\n";
  }
  os << pname << "_bucket{le=\"+Inf\"} " << cumulative << "\n"
     << pname << "_sum " << h.SumMicros() << "\n"
     << pname << "_count " << cumulative << "\n";
  // Exemplars ride as a sibling series (`name{label} value` grammar) rather
  // than OpenMetrics `# {...}` suffixes, so every existing exposition
  // parser — including the strict scrape in admin_server_test — keeps
  // working unchanged. One sample per bucket whose exemplar is set.
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const std::uint64_t id = h.ExemplarTraceId(i);
    if (id == 0) continue;
    os << pname << "_exemplar_trace_id{le=\""
       << LatencyHistogram::BucketUpperMicros(i) << "\"} " << id << "\n";
  }
}

// -------------------------------------------------------- LatencyHistogram

void LatencyHistogram::Record(std::uint64_t micros) {
  buckets_[BucketIndexFor(micros)].fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
}

void LatencyHistogram::Record(std::uint64_t micros, std::uint64_t trace_id) {
  const std::size_t i = BucketIndexFor(micros);
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  if (trace_id != 0) exemplars_[i].store(trace_id, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::MeanMicros() const {
  const std::uint64_t n = Count();
  return n == 0 ? 0.0 : static_cast<double>(SumMicros()) / n;
}

std::uint64_t LatencyHistogram::BucketUpperMicros(std::size_t i) {
  return i == 0 ? 1 : (std::uint64_t{1} << i);
}

std::uint64_t LatencyHistogram::PercentileMicros(double p) const {
  const std::uint64_t total = Count();
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return BucketUpperMicros(i);
  }
  // Unreachable unless a racing Record() moved Count() under us; saturate
  // at the overflow bound either way.
  return kOverflowBoundMicros;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  for (auto& e : exemplars_) e.store(0, std::memory_order_relaxed);
  sum_micros_.store(0, std::memory_order_relaxed);
}

// ----------------------------------------------------------- StatsRegistry

StatsRegistry& StatsRegistry::Global() {
  static StatsRegistry* registry = new StatsRegistry();
  return *registry;
}

Counter* StatsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0) {
    DieKindMismatch(name);
  }
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* StatsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0) {
    DieKindMismatch(name);
  }
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* StatsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    DieKindMismatch(name);
  }
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

std::string StatsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  // std::map iterates sorted; interleave the three kinds by merging on
  // name so the dump reads alphabetically overall.
  std::map<std::string, std::string> lines;
  for (const auto& [name, c] : counters_) {
    lines[name] = name + " " + std::to_string(c->value());
  }
  for (const auto& [name, g] : gauges_) {
    lines[name] = name + " " + std::to_string(g->value());
  }
  for (const auto& [name, h] : histograms_) {
    lines[name] = name + " " + HistogramSummaryText(*h);
  }
  for (const auto& [name, line] : lines) os << line << "\n";
  return os.str();
}

std::string StatsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ", ";
    first = false;
  };
  for (const auto& [name, c] : counters_) {
    sep();
    os << "\"" << name << "\": " << c->value();
  }
  for (const auto& [name, g] : gauges_) {
    sep();
    os << "\"" << name << "\": " << g->value();
  }
  for (const auto& [name, h] : histograms_) {
    sep();
    os << "\"" << name << "\": " << HistogramSummaryJson(*h);
  }
  os << "}";
  return os.str();
}

std::string StatsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    const std::string pname = PrometheusMetricName(name);
    os << "# TYPE " << pname << " counter\n"
       << pname << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string pname = PrometheusMetricName(name);
    os << "# TYPE " << pname << " gauge\n"
       << pname << " " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string pname = PrometheusMetricName(name);
    os << "# TYPE " << pname << " histogram\n";
    AppendPrometheusHistogram(os, pname, *h);
  }
  return os.str();
}

StatsSnapshot StatsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot snapshot;
  for (const auto& [name, c] : counters_) snapshot.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snapshot.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snapshot.histograms[name] = SummarizeHistogram(*h);
  }
  return snapshot;
}

void StatsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->Reset();
  for (const auto& [name, g] : gauges_) g->Reset();
  for (const auto& [name, h] : histograms_) h->Reset();
}

}  // namespace paygo
