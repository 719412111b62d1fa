#include "shard/shard_service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/stats.h"
#include "obs/trace.h"
#include "persist/model_io.h"
#include "schema/corpus_io.h"

namespace paygo {

namespace {

/// %.17g, matching model_io: the router re-ranks merged posteriors, so the
/// wire must not round them.
std::string FmtDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Frame ErrorFrame(std::string reason) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.payload = std::move(reason);
  return frame;
}

struct ShardServiceCounters {
  Counter* requests;
  Counter* errors;
  Counter* sheds;
  Counter* full_pulls;
  Counter* delta_pulls;
  Counter* uptodate_pulls;
  Counter* traced_requests;
  Counter* trace_fetches;

  static ShardServiceCounters& Get() {
    static ShardServiceCounters counters = [] {
      StatsRegistry& reg = StatsRegistry::Global();
      return ShardServiceCounters{
          reg.GetCounter("paygo.shard.service.requests"),
          reg.GetCounter("paygo.shard.service.errors"),
          reg.GetCounter("paygo.shard.service.sheds"),
          reg.GetCounter("paygo.shard.service.full_pulls"),
          reg.GetCounter("paygo.shard.service.delta_pulls"),
          reg.GetCounter("paygo.shard.service.uptodate_pulls"),
          reg.GetCounter("paygo.shard.service.traced_requests"),
          reg.GetCounter("paygo.shard.service.trace_fetches")};
    }();
    return counters;
  }
};

}  // namespace

ShardService::ShardService(PaygoServer& server, ShardServiceOptions options)
    : server_(server),
      options_(std::move(options)),
      listener_("shard", options_, [this](int fd) { ServeConnection(fd); },
                [](int fd) {
                  ShardServiceCounters::Get().sheds->Increment();
                  WriteFrame(fd, FrameType::kError,
                             "shard handler pool saturated");
                }) {}

ShardService::~ShardService() { Stop(); }

void ShardService::ServeConnection(int fd) {
  ShardServiceCounters::Get().requests->Increment();
  Result<Frame> request = ReadFrame(fd);
  if (!request.ok()) {
    ShardServiceCounters::Get().errors->Increment();
    return;  // peer gone or garbage framing; nothing to answer
  }

  // Optional kTraceContext preamble: adopt the originating trace id for
  // the duration of this request, then read the actual request frame from
  // the same connection.
  WireTraceContext ctx;
  bool sampled = false;
  if (request->type == FrameType::kTraceContext) {
    Result<WireTraceContext> parsed = ParseTraceContext(request->payload);
    if (!parsed.ok()) {
      ShardServiceCounters::Get().errors->Increment();
      WriteFrame(fd, FrameType::kError,
                 "trace context: " + parsed.status().message());
      return;
    }
    ctx = *parsed;
    sampled = ctx.sampled;
    ShardServiceCounters::Get().traced_requests->Increment();
    // The caller's remaining deadline budget bounds our IO too: no point
    // writing a reply the router has already given up on.
    if (ctx.deadline_us != 0) {
      const std::uint64_t budget_ms =
          std::max<std::uint64_t>(1, ctx.deadline_us / 1000);
      SetSocketTimeouts(fd,
                        std::min<std::uint64_t>(options_.io_timeout_ms,
                                                budget_ms));
    }
    request = ReadFrame(fd);
    if (!request.ok()) {
      ShardServiceCounters::Get().errors->Increment();
      return;
    }
  }

  // RAII guard: a pooled thread must never leak this request's trace id
  // into the next connection it serves.
  ScopedTraceContext trace_guard(sampled ? ctx.trace_id : 0);
  PAYGO_TRACE_SPAN("shard.handle");
  const Frame reply = Handle(*request);
  if (reply.type == FrameType::kError) {
    ShardServiceCounters::Get().errors->Increment();
  }
  WriteFrame(fd, reply.type, reply.payload);
}

Frame ShardService::Handle(const Frame& request) {
  switch (request.type) {
    case FrameType::kPing: {
      Frame reply;
      reply.type = FrameType::kPong;
      reply.payload = std::to_string(server_.generation());
      return reply;
    }
    case FrameType::kClassify:
      return HandleClassify(request.payload);
    case FrameType::kSnapshotPull:
      return HandleSnapshotPull(request.payload);
    case FrameType::kAddSchema:
      return HandleAddSchema(request.payload);
    case FrameType::kTraceFetch:
      return HandleTraceFetch(request.payload);
    default:
      return ErrorFrame("unsupported frame type " +
                        std::to_string(static_cast<int>(request.type)));
  }
}

Frame ShardService::HandleClassify(const std::string& payload) const {
  const std::size_t eol = payload.find('\n');
  if (eol == std::string::npos) {
    return ErrorFrame("classify payload must be '<k>\\n<query>'");
  }
  char* end = nullptr;
  const unsigned long long k =
      std::strtoull(payload.c_str(), &end, 10);
  if (end == payload.c_str() || k == 0) {
    return ErrorFrame("bad classify k");
  }
  const std::string query = payload.substr(eol + 1);

  // Read the snapshot first: classification may race a swap, so the
  // mediation enrichment below bounds-checks every domain id against this
  // (possibly one-generation-older) snapshot and degrades to no
  // attributes on mismatch.
  const PaygoServer::Snapshot snap = server_.snapshot();
  if (snap == nullptr) {
    return ErrorFrame("shard has no snapshot installed");
  }
  Result<std::vector<DomainScore>> scores = server_.Classify(query);
  if (!scores.ok()) {
    return ErrorFrame("classify: " + scores.status().message());
  }
  const std::size_t n = std::min<std::size_t>(k, scores->size());
  std::ostringstream os;
  os << "ok " << server_.generation() << " " << n << "\n";
  for (std::size_t i = 0; i < n; ++i) {
    const DomainScore& s = (*scores)[i];
    os << s.domain << " " << FmtDouble(s.log_posterior) << " ";
    if (snap->has_mediation() && s.domain < snap->domains().num_domains()) {
      const auto& attrs = snap->mediation(s.domain).mediated.attributes;
      for (std::size_t a = 0; a < attrs.size(); ++a) {
        if (a > 0) os << ",";
        os << attrs[a].name;
      }
    }
    os << "\n";
  }
  Frame reply;
  reply.type = FrameType::kClassifyResult;
  reply.payload = os.str();
  return reply;
}

Frame ShardService::HandleSnapshotPull(const std::string& payload) {
  // "none" marks a replica that has never applied anything — it must get
  // the full snapshot even when this primary still publishes at
  // generation 0, where a numeric pull would read as already caught up.
  const bool bootstrap = payload == "none";
  std::uint64_t since = 0;
  if (!bootstrap) {
    char* end = nullptr;
    const unsigned long long since_raw =
        std::strtoull(payload.c_str(), &end, 10);
    if (end == payload.c_str() || *end != '\0') {
      return ErrorFrame("bad snapshot pull generation");
    }
    since = since_raw;
  }

  // Generation BEFORE snapshot: a concurrent publish makes the label
  // conservative (snapshot >= label), never optimistic.
  const std::uint64_t gen = server_.generation();
  const PaygoServer::Snapshot snap = server_.snapshot();
  if (snap == nullptr) {
    return ErrorFrame("primary has no snapshot installed");
  }
  if (!bootstrap && since == gen) {
    ShardServiceCounters::Get().uptodate_pulls->Increment();
    Frame reply;
    reply.type = FrameType::kUpToDate;
    reply.payload = std::to_string(gen);
    return reply;
  }
  if (!bootstrap && since < gen) {
    std::optional<std::string> records = log_.RecordsCovering(since, gen);
    if (records.has_value()) {
      ShardServiceCounters::Get().delta_pulls->Increment();
      Frame reply;
      reply.type = FrameType::kSnapshotDelta;
      reply.payload = "gen " + std::to_string(gen) + "\n" + *records;
      return reply;
    }
  }
  // Bootstrap, log gap, or a replica from a different history (since >
  // gen after a primary restart): ship the whole state.
  Result<std::string> text = SerializeSnapshot(*snap);
  if (!text.ok()) {
    return ErrorFrame("serialize snapshot: " + text.status().message());
  }
  ShardServiceCounters::Get().full_pulls->Increment();
  Frame reply;
  reply.type = FrameType::kSnapshotFull;
  reply.payload = "gen " + std::to_string(gen) + "\n" + *text;
  return reply;
}

Frame ShardService::HandleTraceFetch(const std::string& payload) const {
  char* end = nullptr;
  const unsigned long long id = std::strtoull(payload.c_str(), &end, 10);
  if (end == payload.c_str() || *end != '\0') {
    return ErrorFrame("bad trace fetch id '" + payload + "'");
  }
  ShardServiceCounters::Get().trace_fetches->Increment();
  const std::vector<TraceEvent> events = Tracer::SnapshotEvents(id);
  std::ostringstream os;
  // The current trace-clock reading rides in the header: the fetching
  // router timestamps the round trip and estimates this node's clock
  // offset as now - (t0 + t1) / 2 (RTT midpoint).
  os << "now " << Tracer::NowMicros() << " " << events.size() << "\n";
  for (const TraceEvent& e : events) {
    os << e.start_us << " " << e.dur_us << " " << e.trace_id << " " << e.tid
       << " " << e.depth << " " << e.name << "\n";
  }
  Frame reply;
  reply.type = FrameType::kTraceEvents;
  reply.payload = os.str();
  return reply;
}

Frame ShardService::HandleAddSchema(const std::string& payload) {
  if (options_.read_only) {
    return ErrorFrame("replica is read-only; route writes to the primary");
  }
  Result<SchemaCorpus> one = ParseCorpus(payload);
  if (!one.ok()) {
    return ErrorFrame("add-schema: " + one.status().message());
  }
  if (one->size() != 1) {
    return ErrorFrame("add-schema payload must hold exactly one schema");
  }
  Schema schema = one->schema(0);
  std::vector<std::string> labels = one->labels(0);

  // Serialize wire writes so the generation we log provably belongs to
  // THIS mutation: if anything else published in the window, the +1 check
  // fails and we clear the log (next pull full-syncs) instead of logging
  // a record under a generation that covers someone else's mutation.
  std::lock_guard<std::mutex> lock(write_mu_);
  const std::uint64_t before = server_.generation();
  Status added = server_.AddSchemaAsync(schema, labels).get();
  if (!added.ok()) {
    return ErrorFrame("add-schema: " + added.message());
  }
  const std::uint64_t after = server_.generation();
  if (after == before + 1) {
    log_.Append(after, MakeDeltaRecord(after, schema, labels));
  } else {
    log_.Clear();
  }
  Frame reply;
  reply.type = FrameType::kAck;
  reply.payload = std::to_string(after);
  return reply;
}

}  // namespace paygo
