#ifndef PAYGO_SERVE_ADMIN_ENDPOINTS_H_
#define PAYGO_SERVE_ADMIN_ENDPOINTS_H_

/// \file admin_endpoints.h
/// \brief Serving-runtime endpoints for the embedded admin HTTP server.
///
/// The obs layer registers the library-wide pages (`/metrics`, `/varz`,
/// `/healthz`, `/tracez` — see obs/admin_server.h); this header layers the
/// PaygoServer-specific surface on top:
///
///   /readyz   200 "ready" when Health().ready(), else 503 with the
///             failing conditions — the load-balancer routing signal.
///   /statusz  One JSON object: uptime, generation, queue occupancy,
///             cache hit ratio, rebuild-in-progress, pool widths, and the
///             installed snapshot's memory (features, domain model,
///             mediations, similarity substrate; bytes by content).
///   /slowz    The slow-query log as JSON.
///
/// It also upgrades /metrics and /varz to include the server's own
/// counters and latency histograms alongside the global registry.

#include <functional>
#include <string>

namespace paygo {

class AdminServer;
class PaygoServer;

/// Registers /readyz, /statusz, /slowz and re-registers /metrics + /varz
/// to merge in \p server's metrics. Call after RegisterObsEndpoints and
/// before admin.Start(). \p server must outlive \p admin's serving life
/// (PaygoServer guarantees this by stopping the admin endpoint first).
///
/// \p extra_status, when set, is called per /statusz request and must
/// return zero or more additional `"key": value` JSON members (comma-
/// separated, no leading/trailing comma); they are spliced into the
/// /statusz object. The shard layer uses this to append its "shardz"
/// section without the serve layer knowing about shards.
void RegisterServerEndpoints(
    AdminServer& admin, const PaygoServer& server,
    std::function<std::string()> extra_status = nullptr);

}  // namespace paygo

#endif  // PAYGO_SERVE_ADMIN_ENDPOINTS_H_
