#ifndef PAYGO_OBS_TRACE_H_
#define PAYGO_OBS_TRACE_H_

/// \file trace.h
/// \brief Library-wide scoped tracing spans with Chrome-trace JSON export.
///
/// Every subsystem (clustering, classification, mediation, query answering,
/// serving) marks its stages with `PAYGO_TRACE_SPAN("name")`. A span is an
/// RAII object on a thread-local span stack: construction notes the start
/// time and nesting depth, destruction writes one *complete* event into a
/// lock-free per-thread ring buffer. `Tracer::ExportChromeTrace()` collects
/// every thread's ring into a Chrome trace-event JSON array that loads
/// directly in Perfetto / chrome://tracing (`"ph":"X"` events nest by
/// timestamp within a thread track).
///
/// Cost model (the contract the rest of the library is written against):
///  * `PAYGO_TRACING=OFF` (CMake option) defines `PAYGO_TRACING_DISABLED`
///    and every `PAYGO_TRACE_SPAN` compiles to nothing.
///  * Compiled in but idle (runtime `Tracer::Enable()` not called): one
///    relaxed atomic load + branch per span site; no clock reads, no TLS
///    ring touched. `bench/perf_obs_overhead` bounds this at <2% on the
///    clustering workload.
///  * Recording: two steady-clock reads plus a handful of relaxed stores
///    into the calling thread's ring (no locks, no allocation after the
///    ring exists).
///
/// Concurrency: each ring is written only by its owning thread. Readers
/// (export) may run concurrently with writers; every slot carries a
/// sequence number published with release ordering, and the reader
/// re-checks it after copying the payload, discarding slots that were
/// overwritten mid-read. All slot fields are relaxed atomics, so the race
/// is benign by construction (and TSan-clean) — a torn slot is dropped,
/// never exported.
///
/// Span names must be string literals (or otherwise have static storage
/// duration): rings store the pointer, not a copy.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace paygo {

/// \brief One finished span as stored in a ring / returned by snapshots.
struct TraceEvent {
  const char* name = nullptr;   ///< Static string; null = empty slot.
  std::uint64_t start_us = 0;   ///< Microseconds since the trace epoch.
  std::uint64_t dur_us = 0;     ///< Span duration in microseconds.
  std::uint64_t trace_id = 0;   ///< Request correlation id; 0 = none.
  std::uint32_t tid = 0;        ///< Small sequential thread id.
  std::uint32_t depth = 0;      ///< Nesting depth at completion time.
};

/// \brief A span copied into a same-thread SpanCollector (no tid needed —
/// collectors are strictly thread-local).
struct CollectedSpan {
  const char* name = nullptr;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t depth = 0;
};

/// \brief Fixed-capacity single-writer ring of finished spans.
///
/// The owning thread appends; any thread may Snapshot() concurrently. An
/// Append past kCapacity overwrites the oldest retained event, which no
/// later export can see; each such overwrite adds one to the
/// paygo.trace.dropped counter (slots emptied by Clear() do not count).
class TraceRing {
 public:
  static constexpr std::size_t kCapacity = 8192;

  explicit TraceRing(std::uint32_t tid) : tid_(tid) {}

  /// Owning thread only.
  void Append(const char* name, std::uint64_t start_us, std::uint64_t dur_us,
              std::uint64_t trace_id, std::uint32_t depth);

  /// Copies the currently retained events (oldest first). Safe against a
  /// concurrent writer: slots overwritten mid-copy are dropped.
  std::vector<TraceEvent> Snapshot() const;

  /// Drops all retained events (racing appends may survive; test aid).
  void Clear();

  std::uint32_t tid() const { return tid_; }
  /// Total events ever appended (monotone; wraparound does not reset it).
  std::uint64_t total_appended() const {
    return head_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{kEmpty};  // absolute event index
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> start_us{0};
    std::atomic<std::uint64_t> dur_us{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint32_t> depth{0};
  };
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  const std::uint32_t tid_;
  std::atomic<std::uint64_t> head_{0};  // next absolute index to write
  Slot slots_[kCapacity];
};

/// \brief Same-thread capture of every span finished while in scope.
///
/// Installs itself as the calling thread's collector (saving any outer
/// one); the serve runtime uses this to attach a span breakdown to each
/// request for the slow-query log. Collection happens in addition to ring
/// recording and only while tracing is enabled.
class SpanCollector {
 public:
  SpanCollector();
  ~SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  const std::vector<CollectedSpan>& spans() const { return spans_; }
  std::vector<CollectedSpan> TakeSpans() { return std::move(spans_); }

  void Add(const CollectedSpan& span) { spans_.push_back(span); }

 private:
  std::vector<CollectedSpan> spans_;
  SpanCollector* previous_;
};

/// \brief Process-wide tracing control, clock, and export.
class Tracer {
 public:
  /// Runtime switches. Spans started while disabled record nothing.
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the process trace epoch (first use of the tracer).
  static std::uint64_t NowMicros();

  /// Fresh nonzero request-correlation id.
  static std::uint64_t NextTraceId();
  /// Sets / reads the calling thread's current trace id; spans recorded on
  /// this thread are tagged with it. 0 clears.
  static void SetCurrentTraceId(std::uint64_t id);
  static std::uint64_t CurrentTraceId();

  /// Records an already-measured complete event (e.g. a queue wait whose
  /// start predates the worker picking the request up). Same routing as a
  /// span destructor: ring + active collector; no-op while disabled.
  static void RecordComplete(const char* name, std::uint64_t start_us,
                             std::uint64_t dur_us);

  /// Chrome trace-event JSON: a single array of "ph":"X" events across all
  /// threads that ever recorded, sorted by start time. Valid input for
  /// Perfetto and chrome://tracing. A nonzero \p trace_id_filter keeps only
  /// events tagged with that request-correlation id.
  static std::string ExportChromeTrace(std::uint64_t trace_id_filter = 0);
  /// ExportChromeTrace() to a file.
  static Status WriteChromeTrace(const std::string& path);

  /// Raw snapshot of every retained event across all rings, sorted by
  /// (start_us, tid). A nonzero \p trace_id_filter keeps only events tagged
  /// with that id. This is the fetch surface the shard layer serializes over
  /// the wire (`kTraceFetch`).
  static std::vector<TraceEvent> SnapshotEvents(
      std::uint64_t trace_id_filter = 0);

  /// Sum of events currently retained across all rings (test/bench aid).
  static std::uint64_t RetainedEventCount();
  /// Clears every registered ring (test/bench aid; do not race recording
  /// threads if exact emptiness matters).
  static void ClearAll();

 private:
  friend class ScopedSpan;
  friend class SpanCollector;

  struct ThreadState;
  static ThreadState& Tls();

  static std::atomic<bool> enabled_;
};

/// \brief RAII adoption of a trace id on the calling thread.
///
/// Construction saves the thread's current trace id and installs \p
/// trace_id; destruction restores the saved id. Pooled threads (admin
/// handler pool, `ShardService` request threads) wrap each request in one
/// of these so a stale id can never leak into the next request's spans or
/// slow-log entries. Nests correctly: inner scopes restore what the outer
/// scope installed.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(std::uint64_t trace_id)
      : previous_(Tracer::CurrentTraceId()) {
    Tracer::SetCurrentTraceId(trace_id);
  }
  ~ScopedTraceContext() { Tracer::SetCurrentTraceId(previous_); }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  std::uint64_t previous() const { return previous_; }

 private:
  std::uint64_t previous_;
};

/// \brief RAII span. Prefer the PAYGO_TRACE_SPAN macro.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_us_ = 0;
  bool active_;
};

}  // namespace paygo

#define PAYGO_TRACE_CONCAT_INNER(a, b) a##b
#define PAYGO_TRACE_CONCAT(a, b) PAYGO_TRACE_CONCAT_INNER(a, b)

#if defined(PAYGO_TRACING_DISABLED)
#define PAYGO_TRACE_SPAN(name) \
  do {                         \
  } while (false)
#else
/// Opens a scoped span named \p name (a string literal) that closes at the
/// end of the enclosing block.
#define PAYGO_TRACE_SPAN(name) \
  ::paygo::ScopedSpan PAYGO_TRACE_CONCAT(paygo_trace_span_, __LINE__)(name)
#endif

#endif  // PAYGO_OBS_TRACE_H_
