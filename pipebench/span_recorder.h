#ifndef PIPEBENCH_SPAN_RECORDER_H_
#define PIPEBENCH_SPAN_RECORDER_H_

/// \file span_recorder.h
/// \brief In-memory spans recorded by the benchmark around its own calls
/// into the library's layers, written out as Chrome trace JSON at exit.
///
/// Single-threaded by design: the traced replay and the traced layer
/// phases run on the benchmark's main thread. A span is (name, start, end,
/// parent); a layer's self time is its duration minus the time its child
/// spans cover (children of one parent never overlap on one thread, so
/// that is the sum of their durations).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open.
    std::size_t parent = kNoParent;
    std::int64_t child_ns = 0;  ///< Time covered by direct children.
  };

  /// Total and self time of every span sharing one name.
  struct NameTotals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span.
  std::size_t Begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes span \p id, which must be the innermost open span, and returns
  /// its duration in seconds.
  double End(std::size_t id) {
    Span& s = spans_[id];
    s.end_ns = NowNs();
    open_.pop_back();
    const std::int64_t dur = s.end_ns - s.start_ns;
    if (s.parent != kNoParent) spans_[s.parent].child_ns += dur;
    return static_cast<double>(dur) * 1e-9;
  }

  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, NameTotals> TotalsByName() const {
    std::map<std::string, NameTotals> out;
    for (const Span& s : spans_) {
      if (s.end_ns < 0) continue;
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      t.self_s +=
          static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), loadable
  /// in chrome://tracing or Perfetto. Each event carries its parent's index
  /// and its self time.
  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\": [";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": 1, \"ts\": " << static_cast<double>(s.start_ns) / 1e3
          << ", \"dur\": "
          << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"id\": " << i << ", \"parent\": "
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << ", \"self_us\": "
          << static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e3
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; End() may be called early to read the duration.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name)
      : rec_(rec), id_(rec.Begin(std::move(name))) {}
  ~ScopedSpan() {
    if (!ended_) End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double End() {
    ended_ = true;
    return rec_.End(id_);
  }

 private:
  SpanRecorder& rec_;
  std::size_t id_;
  bool ended_ = false;
};

}  // namespace pipebench

#endif  // PIPEBENCH_SPAN_RECORDER_H_
