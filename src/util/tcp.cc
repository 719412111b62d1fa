#include "util/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace paygo {

namespace {

/// The IoError for a failed send/recv: n == 0 is an orderly peer close.
Status TransferError(const char* op, ssize_t n) {
  const int err = errno;
  std::string message = op;
  message += ": ";
  message += n == 0 ? "peer closed" : std::strerror(err);
  return Status::IoError(message);
}

}  // namespace

void SetSocketTimeouts(int fd, std::uint64_t timeout_ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Status SendAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return TransferError("send", n);
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status RecvAll(int fd, char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n <= 0) return TransferError("recv", n);
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Result<int> TcpConnect(const std::string& host, std::uint16_t port,
                       std::uint64_t timeout_ms) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  SetSocketTimeouts(fd, timeout_ms);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect " + host + ":" + std::to_string(port) +
                           ": " + err);
  }
  return fd;
}

TcpServer::TcpServer(std::string name, TcpServerOptions options,
                     ConnectionFn serve, ConnectionFn shed)
    : name_(std::move(name)),
      options_(std::move(options)),
      serve_(std::move(serve)),
      shed_(std::move(shed)),
      connections_(options_.pending_connections) {
  if (options_.handler_threads == 0) options_.handler_threads = 1;
}

TcpServer::~TcpServer() { Stop(); }

Result<std::uint16_t> TcpServer::Start() {
  if (running()) return bound_port_;
  if (stopping_.load(std::memory_order_acquire) || connections_.closed()) {
    return Status::FailedPrecondition(
        name_ + " endpoint was stopped; construct a new one");
  }
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument(name_ + " port out of range");
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad " + name_ + " bind address '" +
                                   options_.bind_address + "'");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + err);
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;

  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  pool_.reserve(options_.handler_threads);
  for (std::size_t i = 0; i < options_.handler_threads; ++i) {
    pool_.emplace_back([this] { HandlerLoop(); });
  }
  return bound_port_;
}

void TcpServer::Stop() {
  if (!acceptor_.joinable() && pool_.empty()) return;
  stopping_.store(true, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  connections_.Close();
  for (std::thread& t : pool_) {
    if (t.joinable()) t.join();
  }
  pool_.clear();
  for (int fd : connections_.DrainNow()) ::close(fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // The 100 ms poll bound is the Stop() latency; accept itself never
    // blocks past it.
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    SetSocketTimeouts(fd, options_.io_timeout_ms);
    if (!connections_.TryPush(int{fd})) {
      // Handler pool saturated: shed instead of queueing unbounded work.
      shed_(fd);
      ::close(fd);
    }
  }
}

void TcpServer::HandlerLoop() {
  while (true) {
    std::optional<int> fd = connections_.Pop();
    if (!fd.has_value()) return;  // closed and drained
    serve_(*fd);
    ::close(*fd);
  }
}

}  // namespace paygo
