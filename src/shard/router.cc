#include "shard/router.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "obs/stats.h"
#include "obs/trace.h"
#include "schema/corpus_io.h"
#include "shard/wire.h"
#include "util/string_util.h"

namespace paygo {

namespace {

struct RouterCounters {
  Counter* scatters;
  Counter* shard_failures;
  Counter* degraded_scatters;  ///< served with at least one shard down
  Counter* fleet_trace_fetches;
  Counter* fleet_trace_fetch_failures;
  LatencyHistogram* scatter_latency;

  static RouterCounters& Get() {
    static RouterCounters counters = [] {
      StatsRegistry& reg = StatsRegistry::Global();
      return RouterCounters{
          reg.GetCounter("paygo.shard.router.scatters"),
          reg.GetCounter("paygo.shard.router.shard_failures"),
          reg.GetCounter("paygo.shard.router.degraded_scatters"),
          reg.GetCounter("paygo.shard.router.fleet_trace_fetches"),
          reg.GetCounter("paygo.shard.router.fleet_trace_fetch_failures"),
          reg.GetHistogram("paygo.shard.router.scatter_us")};
    }();
    return counters;
  }
};

/// One event of the merged fleet timeline: a TraceEvent plus the process
/// it came from and its timestamp re-expressed on the router's clock.
struct FleetEvent {
  std::string name;
  std::int64_t ts = 0;  ///< router-clock µs; may go negative for events
                        ///< that predate the router's trace epoch
  std::uint64_t dur = 0;
  std::uint64_t trace_id = 0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
};

/// Parses one kTraceEvents payload: "now <server_now_us> <n>\n" then n
/// lines "<start_us> <dur_us> <trace_id> <tid> <depth> <name>".
Status ParseTraceEvents(const std::string& payload,
                        std::uint64_t* server_now_us,
                        std::vector<FleetEvent>* out) {
  std::istringstream is(payload);
  std::string word;
  std::size_t n = 0;
  if (!(is >> word >> *server_now_us >> n) || word != "now") {
    return Status::InvalidArgument("malformed trace events header");
  }
  std::string line;
  std::getline(is, line);  // consume the header's newline
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::getline(is, line)) {
      return Status::InvalidArgument("truncated trace events payload");
    }
    std::istringstream ls(line);
    FleetEvent e;
    std::uint64_t start = 0;
    if (!(ls >> start >> e.dur >> e.trace_id >> e.tid >> e.depth)) {
      return Status::InvalidArgument("malformed trace event line");
    }
    e.ts = static_cast<std::int64_t>(start);
    std::getline(ls, e.name);
    if (!e.name.empty() && e.name[0] == ' ') e.name.erase(0, 1);
    if (e.name.empty()) {
      return Status::InvalidArgument("trace event without a name");
    }
    out->push_back(std::move(e));
  }
  return Status::OK();
}

/// One shard's kClassifyResult payload:
///   "ok <gen> <n>\n" then n lines "<domain> <log_posterior> <attrs>",
/// attrs comma-joined (attribute names contain spaces, never commas).
Status ParseClassifyReply(const std::string& payload, std::uint32_t shard,
                          std::uint64_t* generation,
                          std::vector<RoutedDomain>* out) {
  std::istringstream is(payload);
  std::string line;
  if (!std::getline(is, line)) {
    return Status::InvalidArgument("empty classify reply");
  }
  std::istringstream head(line);
  std::string ok;
  std::size_t n = 0;
  if (!(head >> ok >> *generation >> n) || ok != "ok") {
    return Status::InvalidArgument("malformed classify reply header");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::getline(is, line)) {
      return Status::InvalidArgument("truncated classify reply");
    }
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      return Status::InvalidArgument("malformed classify result line");
    }
    RoutedDomain d;
    d.shard = shard;
    d.domain =
        static_cast<std::uint32_t>(std::strtoul(line.c_str(), nullptr, 10));
    d.log_posterior = std::strtod(line.c_str() + sp1 + 1, nullptr);
    const std::string attrs = line.substr(sp2 + 1);
    std::size_t pos = 0;
    while (pos < attrs.size()) {
      const std::size_t comma = attrs.find(',', pos);
      const std::string attr =
          attrs.substr(pos, comma == std::string::npos ? std::string::npos
                                                       : comma - pos);
      if (!attr.empty()) d.mediated_attributes.push_back(attr);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    out->push_back(std::move(d));
  }
  return Status::OK();
}

}  // namespace

Result<ShardAddress> ParseShardAddress(std::string_view text) {
  ShardAddress address;
  const std::size_t colon = text.rfind(':');
  std::string_view port_part = text;
  if (colon != std::string_view::npos) {
    address.host = std::string(text.substr(0, colon));
    port_part = text.substr(colon + 1);
  }
  const std::string port_str(port_part);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || port == 0 || port > 65535) {
    return Status::InvalidArgument("bad shard address '" + std::string(text) +
                                   "' (want host:port)");
  }
  address.port = static_cast<std::uint16_t>(port);
  return address;
}

ShardRouter::ShardRouter(std::vector<ShardAddress> shards,
                         RouterOptions options)
    : shards_(std::move(shards)),
      options_(options),
      ring_(shards_.empty() ? 1 : shards_.size(), options.vnodes),
      health_(shards_.size()) {}

void ShardRouter::RecordOutcome(std::size_t shard, bool ok,
                                std::uint64_t generation) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  HealthSlot& slot = health_[shard];
  slot.up = ok;
  if (ok) {
    slot.generation = generation;
    slot.consecutive_failures = 0;
  } else {
    ++slot.consecutive_failures;
  }
}

Result<ScatterResult> ShardRouter::Classify(std::string_view query,
                                            std::size_t k) const {
  if (shards_.empty()) {
    return Status::FailedPrecondition("router has no shards configured");
  }
  if (k == 0) k = 1;
  RouterCounters::Get().scatters->Increment();

  // Adopt the caller's trace id (a traced admin request, say) or mint a
  // fresh fleet-wide one; propagate it to every shard as a kTraceContext
  // preamble. With tracing disabled no preamble is sent at all — the wire
  // bytes are identical to the untraced protocol.
  const bool sampled = Tracer::enabled();
  std::uint64_t trace_id = 0;
  WireTraceContext ctx;
  const WireTraceContext* ctx_ptr = nullptr;
  if (sampled) {
    trace_id = Tracer::CurrentTraceId();
    if (trace_id == 0) trace_id = Tracer::NextTraceId();
    ctx.trace_id = trace_id;
    // The scatter acts as the remote spans' parent; we mint a span id for
    // it from the same sequence so it is unique fleet-wide.
    ctx.parent_span_id = Tracer::NextTraceId();
    ctx.sampled = true;
    ctx.deadline_us = options_.request_timeout_ms * 1000;
    ctx_ptr = &ctx;
  }
  ScopedTraceContext trace_guard(trace_id);
  const std::uint64_t scatter_start_us = Tracer::NowMicros();
  PAYGO_TRACE_SPAN("router.scatter");

  const std::string payload =
      std::to_string(k) + "\n" + std::string(query);
  struct ShardReply {
    Status status = Status::OK();
    std::uint64_t generation = 0;
    std::uint64_t latency_us = 0;
    std::vector<RoutedDomain> ranked;
  };
  std::vector<ShardReply> replies(shards_.size());

  // Thread-per-shard scatter: N is the shard count (single digits), and a
  // slow shard must not delay the others — each thread owns its own
  // connect/read deadline.
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    threads.emplace_back([this, s, &payload, &replies, ctx_ptr, trace_id] {
      ScopedTraceContext shard_guard(trace_id);
      PAYGO_TRACE_SPAN("router.shard_call");
      ShardReply& reply = replies[s];
      const std::uint64_t t0 = Tracer::NowMicros();
      Result<Frame> frame = CallOnceTraced(
          shards_[s].host, shards_[s].port, FrameType::kClassify, payload,
          options_.request_timeout_ms, ctx_ptr);
      reply.latency_us = Tracer::NowMicros() - t0;
      if (!frame.ok()) {
        reply.status = frame.status();
        return;
      }
      if (frame->type != FrameType::kClassifyResult) {
        reply.status = Status::IoError(
            "shard " + std::to_string(s) + ": " +
            (frame->type == FrameType::kError ? frame->payload
                                              : "unexpected frame type"));
        return;
      }
      reply.status =
          ParseClassifyReply(frame->payload, static_cast<std::uint32_t>(s),
                             &reply.generation, &reply.ranked);
    });
  }
  for (std::thread& t : threads) t.join();

  ScatterResult result;
  result.trace_id = trace_id;
  result.shards_total = shards_.size();
  result.shard_generations.assign(shards_.size(), 0);
  result.shard_latency_us.assign(shards_.size(), 0);
  Status first_error = Status::OK();
  for (std::size_t s = 0; s < replies.size(); ++s) {
    const bool ok = replies[s].status.ok();
    RecordOutcome(s, ok, replies[s].generation);
    result.shard_latency_us[s] = replies[s].latency_us;
    if (!ok) {
      RouterCounters::Get().shard_failures->Increment();
      if (first_error.ok()) first_error = replies[s].status;
      continue;
    }
    ++result.shards_ok;
    result.shard_generations[s] = replies[s].generation;
    for (RoutedDomain& d : replies[s].ranked) {
      result.ranked.push_back(std::move(d));
    }
  }
  const std::uint64_t total_us = Tracer::NowMicros() - scatter_start_us;
  RouterCounters::Get().scatter_latency->Record(total_us, trace_id);
  MaybeRecordSlow(query, total_us, result);
  if (result.shards_ok == 0) {
    return Status::IoError("all " + std::to_string(shards_.size()) +
                           " shards failed; first error: " +
                           first_error.message());
  }
  if (result.shards_ok < result.shards_total) {
    RouterCounters::Get().degraded_scatters->Increment();
  }

  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const RoutedDomain& a, const RoutedDomain& b) {
              if (a.log_posterior != b.log_posterior) {
                return a.log_posterior > b.log_posterior;
              }
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.domain < b.domain;
            });
  if (result.ranked.size() > k) result.ranked.resize(k);
  return result;
}

void ShardRouter::MaybeRecordSlow(std::string_view query,
                                  std::uint64_t total_us,
                                  const ScatterResult& result) const {
  if (total_us < options_.slow_query_threshold_us) return;
  if (options_.slow_log_capacity == 0) return;
  RouterSlowEntry entry;
  entry.trace_id = result.trace_id;
  entry.query = std::string(query);
  entry.total_us = total_us;
  entry.shards_ok = result.shards_ok;
  entry.shards_total = result.shards_total;
  entry.shard_latency_us = result.shard_latency_us;
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_log_.push_back(std::move(entry));
  while (slow_log_.size() > options_.slow_log_capacity) {
    slow_log_.pop_front();
  }
}

std::vector<RouterSlowEntry> ShardRouter::SlowEntries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return {slow_log_.begin(), slow_log_.end()};
}

std::string ShardRouter::SlowLogJson() const {
  const std::vector<RouterSlowEntry> entries = SlowEntries();
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const RouterSlowEntry& e = entries[i];
    if (i > 0) os << ", ";
    os << "{\"trace_id\": " << e.trace_id << ", \"query\": \""
       << JsonEscape(e.query) << "\", \"total_us\": " << e.total_us
       << ", \"shards_ok\": " << e.shards_ok
       << ", \"shards_total\": " << e.shards_total
       << ", \"shard_latency_us\": [";
    for (std::size_t s = 0; s < e.shard_latency_us.size(); ++s) {
      if (s > 0) os << ", ";
      os << e.shard_latency_us[s];
    }
    os << "]}";
  }
  os << "]";
  return os.str();
}

Result<std::string> ShardRouter::FleetTraceJson(
    std::uint64_t trace_id) const {
  if (shards_.empty()) {
    return Status::FailedPrecondition("router has no shards configured");
  }
  std::vector<FleetEvent> events;

  // The router's own client-side spans, already on the reference clock.
  for (const TraceEvent& e : Tracer::SnapshotEvents(trace_id)) {
    FleetEvent f;
    f.name = e.name;
    f.ts = static_cast<std::int64_t>(e.start_us);
    f.dur = e.dur_us;
    f.trace_id = e.trace_id;
    f.pid = 1;
    f.tid = e.tid;
    f.depth = e.depth;
    events.push_back(std::move(f));
  }

  // Pull each shard's matching events; degrade on per-shard failure.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    RouterCounters::Get().fleet_trace_fetches->Increment();
    const std::uint64_t t0 = Tracer::NowMicros();
    Result<Frame> frame = CallOnce(shards_[s].host, shards_[s].port,
                                   FrameType::kTraceFetch,
                                   std::to_string(trace_id),
                                   options_.request_timeout_ms);
    const std::uint64_t t1 = Tracer::NowMicros();
    if (!frame.ok() || frame->type != FrameType::kTraceEvents) {
      RouterCounters::Get().fleet_trace_fetch_failures->Increment();
      continue;
    }
    std::uint64_t server_now_us = 0;
    std::vector<FleetEvent> remote;
    Status parsed = ParseTraceEvents(frame->payload, &server_now_us, &remote);
    if (!parsed.ok()) {
      RouterCounters::Get().fleet_trace_fetch_failures->Increment();
      continue;
    }
    // RTT-midpoint clock alignment: the fetch reply was stamped at
    // server_now_us on the shard's trace clock, at approximately the
    // midpoint (t0 + t1) / 2 of the round trip on ours. The difference is
    // the offset estimate (error ≤ RTT / 2); subtracting it re-expresses
    // the shard's timestamps on the router's clock.
    const std::int64_t offset =
        static_cast<std::int64_t>(server_now_us) -
        static_cast<std::int64_t>((t0 + t1) / 2);
    for (FleetEvent& e : remote) {
      e.ts -= offset;
      e.pid = static_cast<std::uint32_t>(s) + 2;
      events.push_back(std::move(e));
    }
  }

  std::sort(events.begin(), events.end(),
            [](const FleetEvent& a, const FleetEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.tid < b.tid;
            });

  std::ostringstream os;
  os << "[";
  bool first = true;
  // Process-name metadata events label the tracks in Perfetto.
  os << "\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": 0, \"args\": {\"name\": \"router\"}}";
  first = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    os << ",\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
       << (s + 2) << ", \"tid\": 0, \"args\": {\"name\": \"shard " << s
       << " (" << JsonEscape(shards_[s].host) << ":" << shards_[s].port
       << ")\"}}";
  }
  for (const FleetEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\": \"" << JsonEscape(e.name)
       << "\", \"ph\": \"X\", \"pid\": " << e.pid << ", \"tid\": " << e.tid
       << ", \"ts\": " << e.ts << ", \"dur\": " << e.dur
       << ", \"args\": {\"trace_id\": " << e.trace_id
       << ", \"depth\": " << e.depth << "}}";
  }
  os << "\n]\n";
  return os.str();
}

Result<std::uint64_t> ShardRouter::AddSchema(
    const Schema& schema, const std::vector<std::string>& labels) const {
  if (shards_.empty()) {
    return Status::FailedPrecondition("router has no shards configured");
  }
  const std::string key =
      labels.empty() ? schema.source_name : labels[0];
  const std::uint32_t s = ring_.ShardFor(key);
  SchemaCorpus one;
  one.set_name("routed");
  one.Add(schema, labels);
  Result<Frame> frame =
      CallOnce(shards_[s].host, shards_[s].port, FrameType::kAddSchema,
               SerializeCorpus(one), options_.request_timeout_ms);
  if (!frame.ok()) {
    RecordOutcome(s, false, 0);
    return frame.status();
  }
  if (frame->type != FrameType::kAck) {
    return Status::IoError(
        "shard " + std::to_string(s) + ": " +
        (frame->type == FrameType::kError ? frame->payload
                                          : "unexpected frame type"));
  }
  const std::uint64_t gen = std::strtoull(frame->payload.c_str(), nullptr, 10);
  RecordOutcome(s, true, gen);
  return gen;
}

void ShardRouter::PingAll() const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Result<Frame> frame =
        CallOnce(shards_[s].host, shards_[s].port, FrameType::kPing, "",
                 options_.request_timeout_ms);
    if (frame.ok() && frame->type == FrameType::kPong) {
      RecordOutcome(s, true,
                    std::strtoull(frame->payload.c_str(), nullptr, 10));
    } else {
      RecordOutcome(s, false, 0);
    }
  }
}

std::vector<ShardRouter::ShardHealth> ShardRouter::Health() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  std::vector<ShardHealth> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardHealth h;
    h.address = shards_[s];
    h.up = health_[s].up;
    h.generation = health_[s].generation;
    h.consecutive_failures = health_[s].consecutive_failures;
    out.push_back(std::move(h));
  }
  return out;
}

std::string ShardRouter::ShardzJson() const {
  const std::vector<ShardHealth> health = Health();
  std::ostringstream os;
  os << "[";
  for (std::size_t s = 0; s < health.size(); ++s) {
    if (s > 0) os << ", ";
    os << "{\"shard\": " << s << ", \"host\": \"" << health[s].address.host
       << "\", \"port\": " << health[s].address.port
       << ", \"up\": " << (health[s].up ? "true" : "false")
       << ", \"generation\": " << health[s].generation
       << ", \"consecutive_failures\": " << health[s].consecutive_failures
       << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace paygo
