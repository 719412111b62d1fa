#ifndef PAYGO_UTIL_TCP_H_
#define PAYGO_UTIL_TCP_H_

/// \file tcp.h
/// \brief The one TCP layer: blocking socket I/O helpers and the listener
/// core that both network endpoints run on.
///
/// TcpServer is the shape the admin HTTP endpoint (obs/admin_server.h) and
/// the shard wire service (shard/shard_service.h) share: one accept thread
/// multiplexing on `poll`, a fixed handler pool draining accepted
/// connections through a BoundedQueue, and admission control — when the
/// queue is full the acceptor hands the connection to the endpoint's shed
/// callback (a 503, a kError frame) instead of queueing unbounded work.
/// Every accepted socket carries the I/O timeout before a callback sees
/// it, and the core closes it after. One connection carries one request:
/// neither protocol keeps state across connections.
///
/// Stop stops accepting, lets the handlers drain the queue, closes the
/// listener and joins every thread. It is idempotent, called by the
/// destructor, and final: Start after Stop fails. The accept poll's 100 ms
/// bound is the Stop latency.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/bounded_queue.h"
#include "util/status.h"

namespace paygo {

/// Applies \p timeout_ms as the socket's receive and send timeout. On
/// Linux the send timeout bounds connect() too.
void SetSocketTimeouts(int fd, std::uint64_t timeout_ms);

/// Sends all \p len bytes, tolerating short writes. MSG_NOSIGNAL keeps a
/// peer that hung up from killing the process with SIGPIPE.
Status SendAll(int fd, const char* data, std::size_t len);

/// Receives exactly \p len bytes; IoError on timeout or early EOF.
Status RecvAll(int fd, char* data, std::size_t len);

/// Connects to the IPv4 \p host:\p port with connect + I/O timeouts
/// applied. Returns the connected fd; the caller owns (and closes) it.
Result<int> TcpConnect(const std::string& host, std::uint16_t port,
                       std::uint64_t timeout_ms);

/// \brief The listener settings both endpoints share. The defaults bind a
/// loopback-only ephemeral port with the admin endpoint's pool shape.
struct TcpServerOptions {
  /// TCP port to bind; 0 asks the kernel for an ephemeral port (Start()
  /// returns it).
  int port = 0;
  /// IPv4 bind address. Loopback by default: exposing an endpoint beyond
  /// the host is a deployment decision, not a library default.
  std::string bind_address = "127.0.0.1";
  /// Fixed handler pool width; 0 is treated as 1.
  std::size_t handler_threads = 2;
  /// Accepted connections waiting for a handler beyond this are shed.
  std::size_t pending_connections = 16;
  /// Per-connection socket read/write timeout.
  std::uint64_t io_timeout_ms = 5000;
};

/// \brief Poll-driven accept thread + bounded handler pool. See the file
/// comment for the threading contract.
class TcpServer {
 public:
  /// Serves (or sheds) one accepted connection. The core closes \p fd
  /// when the callback returns.
  using ConnectionFn = std::function<void(int fd)>;

  /// \p name ("admin", "shard") labels Start()'s errors. \p serve runs on
  /// a handler thread; \p shed runs on the accept thread, so it must be
  /// short.
  TcpServer(std::string name, TcpServerOptions options, ConnectionFn serve,
            ConnectionFn shed);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and spawns the accept thread + handler pool. Returns
  /// the bound port — the kernel-chosen one when options.port == 0.
  /// Idempotent while running. InvalidArgument for a port outside
  /// [0, 65535] or a bind address that is not an IPv4 literal;
  /// FailedPrecondition after Stop(); IoError when the port cannot be
  /// bound.
  Result<std::uint16_t> Start();

  /// Stops accepting, drains the queue, joins all threads.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port; valid after a successful Start().
  std::uint16_t port() const { return bound_port_; }

 private:
  void AcceptLoop();
  void HandlerLoop();

  const std::string name_;
  TcpServerOptions options_;
  ConnectionFn serve_;
  ConnectionFn shed_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  BoundedQueue<int> connections_;
  std::thread acceptor_;
  std::vector<std::thread> pool_;
};

}  // namespace paygo

#endif  // PAYGO_UTIL_TCP_H_
