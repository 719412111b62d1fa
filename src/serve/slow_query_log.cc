#include "serve/slow_query_log.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"

namespace paygo {

void SlowQueryLog::MaybeRecord(SlowQueryEntry entry) {
  if (capacity_ == 0 || entry.total_us <= threshold_us_) return;
  over_threshold_.fetch_add(1, std::memory_order_relaxed);
  // Fast reject: cannot outrank the current fastest retained entry of a
  // full log. Stale reads only cause a harmless lock acquisition.
  if (entry.total_us <= admission_floor_us_.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() >= capacity_ &&
      entry.total_us <= entries_.back().total_us) {
    return;
  }
  auto pos = std::upper_bound(entries_.begin(), entries_.end(), entry.total_us,
                              [](std::uint64_t us, const SlowQueryEntry& e) {
                                return us > e.total_us;
                              });
  entries_.insert(pos, std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_back();
  if (entries_.size() >= capacity_) {
    admission_floor_us_.store(entries_.back().total_us,
                              std::memory_order_relaxed);
  }
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

std::string SlowQueryLog::DebugString() const {
  const std::vector<SlowQueryEntry> entries = Entries();
  std::ostringstream os;
  os << "slow queries (threshold=" << threshold_us_
     << "us, retained=" << entries.size() << "/" << capacity_
     << ", over_threshold=" << OverThresholdCount() << ")\n";
  for (const SlowQueryEntry& e : entries) {
    os << "  [" << e.kind << "] " << e.total_us << "us trace_id=" << e.trace_id
       << " gen=" << e.snapshot_generation << " query=\"" << e.query << "\"\n";
    for (const CollectedSpan& s : e.spans) {
      os << "    ";
      for (std::uint32_t d = 0; d < s.depth; ++d) os << "  ";
      os << s.name << " " << s.dur_us << "us\n";
    }
  }
  return os.str();
}

std::string SlowQueryLog::ToJson() const {
  const std::vector<SlowQueryEntry> entries = Entries();
  std::ostringstream os;
  os << "[";
  bool first_entry = true;
  for (const SlowQueryEntry& e : entries) {
    if (!first_entry) os << ",";
    first_entry = false;
    os << "\n{\"trace_id\": " << e.trace_id << ", \"kind\": \"" << e.kind
       << "\", \"query\": \"" << JsonEscape(e.query)
       << "\", \"total_us\": " << e.total_us
       << ", \"snapshot_generation\": " << e.snapshot_generation
       << ", \"spans\": [";
    bool first_span = true;
    for (const CollectedSpan& s : e.spans) {
      if (!first_span) os << ", ";
      first_span = false;
      os << "{\"name\": \"" << s.name << "\", \"start_us\": " << s.start_us
         << ", \"dur_us\": " << s.dur_us << ", \"depth\": " << s.depth << "}";
    }
    os << "]}";
  }
  os << "\n]";
  return os.str();
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  admission_floor_us_.store(0, std::memory_order_relaxed);
  over_threshold_.store(0, std::memory_order_relaxed);
}

}  // namespace paygo
