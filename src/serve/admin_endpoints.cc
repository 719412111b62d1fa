#include "serve/admin_endpoints.h"

#include <sstream>

#include "obs/admin_server.h"
#include "obs/build_info.h"
#include "obs/stats.h"
#include "serve/paygo_server.h"

namespace paygo {

void RegisterServerEndpoints(AdminServer& admin, const PaygoServer& server,
                             std::function<std::string()> extra_status) {
  const PaygoServer* srv = &server;

  // /metrics and /varz replace the obs-level registrations: the operator
  // wants one scrape target, so the server's own counters ride along with
  // the global registry.
  admin.Handle("/metrics", [srv](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        StatsRegistry::Global().ToPrometheus() + srv->metrics().ToPrometheus();
    return response;
  });
  admin.Handle("/varz", [srv](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = "{\"stats\": " + StatsRegistry::Global().ToJson() +
                    ", \"server\": " + srv->metrics().ToJson() + "}\n";
    return response;
  });

  admin.Handle("/readyz", [srv](const HttpRequest&) {
    const HealthState health = srv->Health();
    HttpResponse response;
    response.status = health.ready() ? 200 : 503;
    response.body = health.Describe() + "\n";
    return response;
  });

  admin.Handle("/statusz", [srv, extra_status](const HttpRequest&) {
    const HealthState health = srv->Health();
    const ServerMetrics& m = srv->metrics();
    const ServeOptions& opts = srv->options();
    std::ostringstream os;
    os << "{\"uptime_s\": " << health.uptime_seconds
       << ", \"running\": " << (health.started ? "true" : "false")
       << ", \"ready\": " << (health.ready() ? "true" : "false")
       << ", \"snapshot_installed\": "
       << (health.snapshot_installed ? "true" : "false")
       << ", \"generation\": " << health.generation
       << ", \"queue_depth\": " << health.queue_depth
       << ", \"queue_capacity\": " << health.queue_capacity
       << ", \"queue_watermark\": " << health.queue_watermark
       << ", \"queue_saturated\": "
       << (health.queue_saturated ? "true" : "false")
       << ", \"rebuild_in_progress\": "
       << (health.rebuild_in_progress ? "true" : "false")
       << ", \"workers\": " << opts.num_workers
       << ", \"rebuild_threads\": " << opts.rebuild_threads
       << ", \"cache_size\": " << srv->cache_size()
       << ", \"cache_hit_rate\": " << m.CacheHitRate()
       << ", \"requests_submitted\": " << m.requests_submitted.load()
       << ", \"requests_completed\": " << m.requests_completed.load()
       << ", \"requests_rejected\": " << m.requests_rejected.load()
       << ", \"requests_timed_out\": " << m.requests_timed_out.load()
       << ", \"requests_failed\": " << m.requests_failed.load()
       << ", \"slow_queries\": " << srv->slow_query_log().OverThresholdCount()
       << ", \"write_path\": {\"delta_updates\": " << m.delta_updates.load()
       << ", \"rebuild_updates\": " << m.rebuild_updates.load()
       << ", \"updates_failed\": " << m.updates_failed.load()
       << ", \"clone_us\": " << HistogramSummaryJson(m.clone_latency)
       << ", \"delta_rebuild_us\": "
       << HistogramSummaryJson(m.delta_update_latency)
       << ", \"full_rebuild_us\": "
       << HistogramSummaryJson(m.rebuild_update_latency) << "}";
    // The installed snapshot's bytes, each counted by content.
    if (const auto snap = srv->snapshot(); snap != nullptr) {
      os << ", \"memory\": {\"features_bytes\": "
         << snap->features().MemoryBytes()
         << ", \"domains_bytes\": " << snap->domains().MemoryBytes()
         << ", \"mediations_bytes\": " << snap->mediation_bytes()
         << ", \"substrate_bytes\": " << snap->substrate_bytes() << "}";
    }
    os << ", \"build_info\": " << BuildInfoJson();
    if (extra_status) {
      const std::string extra = extra_status();
      if (!extra.empty()) os << ", " << extra;
    }
    os << "}\n";
    HttpResponse response;
    response.content_type = "application/json";
    response.body = os.str();
    return response;
  });

  admin.Handle("/slowz", [srv](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = srv->slow_query_log().ToJson() + "\n";
    return response;
  });
}

}  // namespace paygo
