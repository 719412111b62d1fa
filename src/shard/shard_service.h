#ifndef PAYGO_SHARD_SHARD_SERVICE_H_
#define PAYGO_SHARD_SHARD_SERVICE_H_

/// \file shard_service.h
/// \brief The wire-protocol server of one shard node.
///
/// Serves the shard/wire.h protocol over a PaygoServer: classification
/// reads fan in from the router (kClassify), replicas pull state
/// (kSnapshotPull — full snapshot, delta records, or up-to-date; see
/// replication.h), the router routes writes (kAddSchema), and kPing
/// answers with the serving generation for health probes.
///
/// The listener, handler pool and Start/Stop are the shared TCP core
/// (util/tcp.h), which the admin HTTP endpoint runs on too; a saturated
/// pool sheds the connection with a kError frame. One request frame, one
/// response frame, connection closed — no protocol state survives a
/// connection.
///
/// Distributed tracing: a connection may open with a kTraceContext
/// preamble frame (see wire.h). The handler adopts the originating trace
/// id under a ScopedTraceContext guard — restored before the pooled thread
/// picks up its next connection — so every span this request produces
/// (including PaygoServer worker spans, which inherit the submitting
/// thread's id) lands in this node's TraceRing tagged with the fleet-wide
/// id. kTraceFetch returns the retained events matching an id together
/// with this node's current trace-clock reading, which the router uses for
/// RTT-midpoint clock alignment when merging fleet timelines.
///
/// Snapshot-pull labeling reads the generation BEFORE the snapshot
/// pointer: a mutation publishing in between makes the label conservative
/// (the shipped snapshot is at least as new as its label), so a replica
/// may re-pull a generation it already has but can never believe it is
/// fresher than it is.

#include <cstdint>
#include <mutex>
#include <string>

#include "serve/paygo_server.h"
#include "shard/replication.h"
#include "shard/wire.h"
#include "util/status.h"
#include "util/tcp.h"

namespace paygo {

/// The shared listener settings (util/tcp.h) with a wider pool than the
/// admin endpoint's: 4 handler threads, 32 pending connections.
struct ShardServiceOptions : TcpServerOptions {
  ShardServiceOptions() {
    handler_threads = 4;
    pending_connections = 32;
  }
  /// Replicas reject kAddSchema — writes go to the primary, state arrives
  /// via replication.
  bool read_only = false;
};

class ShardService {
 public:
  /// \p server must outlive this object and be Start()ed first.
  explicit ShardService(PaygoServer& server, ShardServiceOptions options = {});
  ~ShardService();

  ShardService(const ShardService&) = delete;
  ShardService& operator=(const ShardService&) = delete;

  /// Binds, listens, spawns the accept/handler threads. Returns the bound
  /// port (kernel-chosen when options.port == 0). Idempotent.
  Result<std::uint16_t> Start() { return listener_.Start(); }
  void Stop() { listener_.Stop(); }
  bool running() const { return listener_.running(); }
  std::uint16_t port() const { return listener_.port(); }

  /// The AddSchema delta log replicas pull from.
  ReplicationLog& log() { return log_; }

 private:
  void ServeConnection(int fd);
  Frame Handle(const Frame& request);
  Frame HandleClassify(const std::string& payload) const;
  Frame HandleSnapshotPull(const std::string& payload);
  Frame HandleAddSchema(const std::string& payload);
  Frame HandleTraceFetch(const std::string& payload) const;

  PaygoServer& server_;
  ShardServiceOptions options_;
  ReplicationLog log_;

  /// Serializes kAddSchema handling so each appended log record provably
  /// maps to the generation its mutation published (see HandleAddSchema).
  std::mutex write_mu_;

  /// Last, so its threads stop before the members they use are destroyed.
  TcpServer listener_;
};

}  // namespace paygo

#endif  // PAYGO_SHARD_SHARD_SERVICE_H_
