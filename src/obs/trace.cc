#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/stats.h"

namespace paygo {

namespace {

using Clock = std::chrono::steady_clock;

/// Registry of every thread's ring. Threads register on first recording;
/// the shared_ptr keeps a ring exportable after its thread exits.
struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<TraceRing>> rings;
  std::uint32_t next_tid = 1;

  static RingRegistry& Get() {
    static RingRegistry* registry = new RingRegistry();
    return *registry;
  }

  std::shared_ptr<TraceRing> Register() {
    std::lock_guard<std::mutex> lock(mu);
    auto ring = std::make_shared<TraceRing>(next_tid++);
    rings.push_back(ring);
    return ring;
  }

  std::vector<std::shared_ptr<TraceRing>> All() {
    std::lock_guard<std::mutex> lock(mu);
    return rings;
  }
};

Clock::time_point TraceEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::atomic<std::uint64_t> g_next_trace_id{1};

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

// ---------------------------------------------------------------- TraceRing

void TraceRing::Append(const char* name, std::uint64_t start_us,
                       std::uint64_t dur_us, std::uint64_t trace_id,
                       std::uint32_t depth) {
  const std::uint64_t index = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[index % kCapacity];
  if (slot.seq.load(std::memory_order_relaxed) != kEmpty) {
    // Wrapped onto a retained event: it is lost to every later export.
    static Counter* dropped =
        StatsRegistry::Global().GetCounter("paygo.trace.dropped");
    dropped->Increment();
  }
  // Invalidate the slot first so a concurrent reader cannot mistake a
  // half-written payload for the previous (valid) event.
  slot.seq.store(kEmpty, std::memory_order_release);
  slot.name.store(name, std::memory_order_relaxed);
  slot.start_us.store(start_us, std::memory_order_relaxed);
  slot.dur_us.store(dur_us, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.depth.store(depth, std::memory_order_relaxed);
  // Publish: payload happens-before the sequence number readers check.
  slot.seq.store(index, std::memory_order_release);
  head_.store(index + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t begin = head > kCapacity ? head - kCapacity : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t i = begin; i < head; ++i) {
    const Slot& slot = slots_[i % kCapacity];
    if (slot.seq.load(std::memory_order_acquire) != i) continue;
    TraceEvent e;
    e.name = slot.name.load(std::memory_order_relaxed);
    e.start_us = slot.start_us.load(std::memory_order_relaxed);
    e.dur_us = slot.dur_us.load(std::memory_order_relaxed);
    e.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    e.depth = slot.depth.load(std::memory_order_relaxed);
    e.tid = tid_;
    // A writer may have lapped us while we copied; re-check before keeping.
    if (slot.seq.load(std::memory_order_acquire) != i || e.name == nullptr) {
      continue;
    }
    out.push_back(e);
  }
  return out;
}

void TraceRing::Clear() {
  for (Slot& slot : slots_) slot.seq.store(kEmpty, std::memory_order_release);
}

// ----------------------------------------------------------------- Tracer

struct Tracer::ThreadState {
  std::shared_ptr<TraceRing> ring;
  SpanCollector* collector = nullptr;
  std::uint64_t trace_id = 0;
  std::uint32_t depth = 0;

  TraceRing& Ring() {
    if (ring == nullptr) ring = RingRegistry::Get().Register();
    return *ring;
  }
};

Tracer::ThreadState& Tracer::Tls() {
  thread_local ThreadState state;
  return state;
}

std::uint64_t Tracer::NowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            TraceEpoch())
          .count());
}

std::uint64_t Tracer::NextTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::SetCurrentTraceId(std::uint64_t id) { Tls().trace_id = id; }

std::uint64_t Tracer::CurrentTraceId() { return Tls().trace_id; }

void Tracer::RecordComplete(const char* name, std::uint64_t start_us,
                            std::uint64_t dur_us) {
  if (!enabled()) return;
  ThreadState& state = Tls();
  state.Ring().Append(name, start_us, dur_us, state.trace_id, state.depth);
  if (state.collector != nullptr) {
    state.collector->Add({name, start_us, dur_us, state.depth});
  }
}

std::vector<TraceEvent> Tracer::SnapshotEvents(std::uint64_t trace_id_filter) {
  std::vector<TraceEvent> events;
  for (const auto& ring : RingRegistry::Get().All()) {
    for (const TraceEvent& e : ring->Snapshot()) {
      if (trace_id_filter != 0 && e.trace_id != trace_id_filter) continue;
      events.push_back(e);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.tid < b.tid;
            });
  return events;
}

std::string Tracer::ExportChromeTrace(std::uint64_t trace_id_filter) {
  const std::vector<TraceEvent> events = SnapshotEvents(trace_id_filter);
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\": \"" << e.name << "\", \"ph\": \"X\", \"pid\": 1"
       << ", \"tid\": " << e.tid << ", \"ts\": " << e.start_us
       << ", \"dur\": " << e.dur_us << ", \"args\": {\"trace_id\": "
       << e.trace_id << ", \"depth\": " << e.depth << "}}";
  }
  os << "\n]\n";
  return os.str();
}

Status Tracer::WriteChromeTrace(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open trace file " + path);
  out << ExportChromeTrace();
  out.flush();
  if (!out) return Status::IoError("failed writing trace file " + path);
  return Status::OK();
}

std::uint64_t Tracer::RetainedEventCount() {
  std::uint64_t total = 0;
  for (const auto& ring : RingRegistry::Get().All()) {
    total += ring->Snapshot().size();
  }
  return total;
}

void Tracer::ClearAll() {
  for (const auto& ring : RingRegistry::Get().All()) ring->Clear();
}

// ------------------------------------------------------------ SpanCollector

SpanCollector::SpanCollector() {
  Tracer::ThreadState& state = Tracer::Tls();
  previous_ = state.collector;
  state.collector = this;
}

SpanCollector::~SpanCollector() { Tracer::Tls().collector = previous_; }

// --------------------------------------------------------------- ScopedSpan

ScopedSpan::ScopedSpan(const char* name)
    : name_(name), active_(Tracer::enabled()) {
  if (!active_) return;
  ++Tracer::Tls().depth;
  start_us_ = Tracer::NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::uint64_t dur = Tracer::NowMicros() - start_us_;
  Tracer::ThreadState& state = Tracer::Tls();
  const std::uint32_t depth = --state.depth;
  state.Ring().Append(name_, start_us_, dur, state.trace_id, depth);
  if (state.collector != nullptr) {
    state.collector->Add({name_, start_us_, dur, depth});
  }
}

}  // namespace paygo
