#include "obs/exporter.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "util/string_util.h"

namespace paygo {

namespace {

std::uint64_t NowMillis() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

MetricsSnapshotter::MetricsSnapshotter(StatsRegistry& registry,
                                       MetricsSnapshotterOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.interval_ms == 0) options_.interval_ms = 1;
}

MetricsSnapshotter::~MetricsSnapshotter() { Stop(); }

Status MetricsSnapshotter::Start() {
  if (running()) return Status::OK();
  if (options_.path.empty()) {
    return Status::InvalidArgument("exporter path is empty");
  }
  out_.open(options_.path, std::ios::out | std::ios::app);
  if (!out_.is_open()) {
    return Status::IoError("cannot open metrics export file '" +
                           options_.path + "'");
  }
  // The first record diffs against the values at Start(), not zero, so a
  // restarted exporter does not report the process's whole history as one
  // giant delta.
  previous_ = registry_.Snapshot();
  stop_requested_ = false;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void MetricsSnapshotter::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  wake_.notify_all();
  thread_.join();
  // Final record: captures whatever accumulated since the last wake.
  WriteRecord();
  out_.flush();
  out_.close();
  running_.store(false, std::memory_order_release);
}

void MetricsSnapshotter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    const bool stopped = wake_.wait_for(
        lock, std::chrono::milliseconds(options_.interval_ms),
        [&] { return stop_requested_; });
    if (stopped) break;
    lock.unlock();
    WriteRecord();
    lock.lock();
  }
}

void MetricsSnapshotter::WriteRecord() {
  const StatsSnapshot current = registry_.Snapshot();
  std::ostringstream os;
  os << "{\"ts_ms\": " << NowMillis() << ", \"seq\": " << seq_++;

  os << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : current.counters) {
    if (!first) os << ", ";
    first = false;
    const auto prev = previous_.counters.find(name);
    const std::uint64_t before =
        prev == previous_.counters.end() ? 0 : prev->second;
    // Counters are monotone; a value below the previous snapshot means a
    // test reset, which we report as a fresh start rather than underflow.
    const std::uint64_t delta = value >= before ? value - before : value;
    os << "\"" << JsonEscape(name) << "\": {\"value\": " << value
       << ", \"delta\": " << delta << "}";
  }
  os << "}";

  os << ", \"gauges\": {";
  first = true;
  for (const auto& [name, value] : current.gauges) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << JsonEscape(name) << "\": " << value;
  }
  os << "}";

  os << ", \"histograms\": {";
  first = true;
  for (const auto& [name, h] : current.histograms) {
    if (!first) os << ", ";
    first = false;
    const auto prev = previous_.histograms.find(name);
    const std::uint64_t before =
        prev == previous_.histograms.end() ? 0 : prev->second.count;
    const std::uint64_t delta = h.count >= before ? h.count - before : h.count;
    os << "\"" << JsonEscape(name) << "\": {\"count\": " << h.count
       << ", \"delta_count\": " << delta << ", \"sum_us\": " << h.sum_us
       << ", \"mean_us\": " << h.mean_us << ", \"p50_us\": " << h.p50_us
       << ", \"p95_us\": " << h.p95_us << ", \"p99_us\": " << h.p99_us << "}";
  }
  os << "}}";

  out_ << os.str() << "\n";
  out_.flush();
  previous_ = current;
  records_written_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace paygo
