#ifndef PAYGO_OBS_ADMIN_SERVER_H_
#define PAYGO_OBS_ADMIN_SERVER_H_

/// \file admin_server.h
/// \brief Embedded, dependency-free admin HTTP/1.1 endpoint.
///
/// The library's in-process telemetry (StatsRegistry, trace rings, the
/// serving runtime's metrics and slow-query log) is useless to an operator
/// if it can only be read with a debugger attached. AdminServer exposes it
/// over plain HTTP using nothing but POSIX sockets: request-line + Host
/// parsing only (no chunked bodies, no keep-alive — every response closes
/// the connection), and a hard request cap of `max_request_bytes`
/// (default 1 MiB) so a misbehaving client cannot balloon memory.
///
/// The listener, handler pool, shedding and Start/Stop are the shared TCP
/// core (util/tcp.h), which the shard wire service runs on too. Design
/// constraints, in order:
///  * **Never perturb the serving path.** Handlers run on the admin pool,
///    not the request workers; everything they read is lock-free metric
///    sampling or short registry locks. When the handler pool is saturated
///    the connection is shed with an immediate 503 instead of queueing
///    unbounded work — the same admission-control philosophy as the
///    serving queue.
///  * **Dependency-free.** This is monitoring plumbing; pulling in an HTTP
///    library for GET-only plaintext endpoints would invert the cost.
///
/// Routing is an exact-path map registered before Start(). The obs-level
/// endpoints (`/metrics`, `/varz`, `/healthz`, `/tracez`) are attached by
/// `RegisterObsEndpoints`; the serving runtime layers `/readyz`,
/// `/statusz`, `/slowz` on top (see serve/admin_endpoints.h). `GET /`
/// serves an index of registered paths.

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "util/status.h"
#include "util/tcp.h"

namespace paygo {

/// \brief The slice of an HTTP request a handler sees. Deliberately
/// minimal: method, split request target, and the Host header.
struct HttpRequest {
  std::string method;  ///< "GET" (anything else is rejected with 405).
  std::string target;  ///< Raw request target, e.g. "/metrics?name=hac".
  std::string path;    ///< Target up to the first '?'.
  std::string query;   ///< Target after the first '?' ("" when absent).
  std::string host;    ///< Host header value ("" when absent).
};

/// \brief What a handler returns; serialized as HTTP/1.1 with
/// Content-Length and Connection: close.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// \brief Tuning knobs: the shared listener settings (util/tcp.h; 2
/// handler threads, 16 pending connections — a full queue answers 503)
/// plus the request cap.
struct AdminServerOptions : TcpServerOptions {
  /// Requests larger than this (request line + headers) are answered 413.
  std::size_t max_request_bytes = 1 << 20;
};

/// \brief The embedded HTTP endpoint. Construct, Handle(...), Start().
class AdminServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit AdminServer(AdminServerOptions options = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers (or replaces) the handler for an exact path. Must be called
  /// before Start() — the route map is immutable while serving.
  void Handle(std::string path, Handler handler);

  /// Binds, listens, and spawns the accept thread + handler pool. Returns
  /// the bound port — with options.port = 0 that is the kernel-chosen
  /// ephemeral port, so multi-process harnesses get a collision-free port
  /// straight from Start() instead of scraping logs. Idempotent while
  /// running; errors as TcpServer::Start.
  Result<std::uint16_t> Start() { return listener_.Start(); }

  /// Stops accepting, drains queued connections, joins all threads.
  /// Idempotent; called by the destructor.
  void Stop() { listener_.Stop(); }

  bool running() const { return listener_.running(); }
  /// The bound port (resolves port 0 to the kernel-chosen one). Valid
  /// after a successful Start().
  std::uint16_t port() const { return listener_.port(); }
  const AdminServerOptions& options() const { return options_; }

 private:
  void ServeConnection(int fd);
  /// Half-closes \p fd after an early response and discards the unread
  /// rest of the request, bounded, so the core's close does not reset it.
  void DrainBeforeClose(int fd) const;
  HttpResponse Dispatch(const HttpRequest& request) const;

  AdminServerOptions options_;
  std::map<std::string, Handler> handlers_;
  TcpServer listener_;
};

/// Registers the library-level observability endpoints on \p admin:
///   /metrics  Prometheus exposition of the global StatsRegistry
///   /varz     the same registry as one JSON object
///   /healthz  liveness: always 200 "ok" while the process serves HTTP
///   /tracez   drains the trace rings as Chrome trace-event JSON;
///             ?trace_id=N keeps only that request's spans
void RegisterObsEndpoints(AdminServer& admin);

/// "key=value&key=value" query-string lookup returning the value of \p key
/// as u64; 0 when absent or non-numeric (0 never names a real trace id, so
/// it doubles as "no filter").
std::uint64_t QueryParamU64(const std::string& query, const std::string& key);

/// Minimal loopback HTTP GET for tests, smoke checks, and demos: connects
/// to 127.0.0.1:\p port, sends `GET target HTTP/1.1`, and returns the raw
/// response (status line, headers, body). Not a general HTTP client.
Result<std::string> AdminHttpGet(std::uint16_t port, const std::string& target,
                                 std::uint64_t timeout_ms = 2000);

}  // namespace paygo

#endif  // PAYGO_OBS_ADMIN_SERVER_H_
