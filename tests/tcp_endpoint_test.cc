/// \file tcp_endpoint_test.cc
/// \brief The shared TCP core (util/tcp.h), tested through both endpoints
/// that run on it: the admin HTTP server and the shard wire service. Each
/// behaviour — shedding past a full handler queue, staying live after
/// garbage input, Start's argument and restart checks — is checked on
/// both, over real loopback sockets.

#include "util/tcp.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>

#include "core/integration_system.h"
#include "obs/admin_server.h"
#include "obs/stats.h"
#include "serve/paygo_server.h"
#include "shard/shard_service.h"
#include "shard/wire.h"

namespace paygo {
namespace {

std::uint64_t CounterValue(const char* name) {
  return StatsRegistry::Global().GetCounter(name)->value();
}

/// Spins until \p name has risen to at least \p target (or 5 s pass).
bool WaitForCounter(const char* name, std::uint64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CounterValue(name) < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

int Connect(std::uint16_t port) {
  Result<int> fd = TcpConnect("127.0.0.1", port, 5000);
  EXPECT_TRUE(fd.ok()) << fd.status();
  return fd.ok() ? *fd : -1;
}

void Send(int fd, const std::string& bytes) {
  const Status sent = SendAll(fd, bytes.data(), bytes.size());
  EXPECT_TRUE(sent.ok()) << sent;
}

/// Reads until the peer closes, then closes \p fd.
std::string ReadToEofAndClose(int fd) {
  std::string out;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

int HttpStatusOf(const std::string& response) {
  const std::size_t sp = response.find(' ');
  return sp == std::string::npos ? -1 : std::atoi(response.c_str() + sp + 1);
}

std::string HttpGet(std::uint16_t port, const std::string& target) {
  const int fd = Connect(port);
  Send(fd, "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  return ReadToEofAndClose(fd);
}

std::string FrameHeader(std::uint32_t len, std::uint8_t type) {
  std::string header(5, '\0');
  for (int i = 0; i < 4; ++i) {
    header[static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  }
  header[4] = static_cast<char>(type);
  return header;
}

/// A started, empty PaygoServer for a ShardService to front: kPing needs
/// only its generation.
std::unique_ptr<PaygoServer> StartedEmptyServer() {
  auto server = std::make_unique<PaygoServer>(ServeOptions{});
  EXPECT_TRUE(server->Start().ok());
  return server;
}

SchemaCorpus SmallCorpus() {
  SchemaCorpus corpus("small");
  corpus.Add(Schema("expedia", {"departure airport", "destination airport",
                                "airline"}),
             {"travel"});
  corpus.Add(Schema("kayak", {"departure", "destination airport", "airline"}),
             {"travel"});
  corpus.Add(Schema("dblp", {"title", "authors", "year of publish"}),
             {"bibliography"});
  corpus.Add(Schema("citeseer", {"title", "author", "year"}),
             {"bibliography"});
  return corpus;
}

// --- (a) shedding past a full handler queue ---

TEST(TcpEndpointTest, AdminShedsWith503WhenThePoolIsFull) {
  AdminServerOptions options;
  options.handler_threads = 1;
  options.pending_connections = 1;
  AdminServer admin(options);
  std::latch entered(1), release(1);
  admin.Handle("/block", [&](const HttpRequest&) {
    entered.count_down();
    release.wait();
    HttpResponse response;
    response.body = "released\n";
    return response;
  });
  RegisterObsEndpoints(admin);
  ASSERT_TRUE(admin.Start().ok());
  const std::uint64_t sheds_before = CounterValue("paygo.admin.sheds");

  // The one handler blocks inside /block; the next connection fills the
  // one queue slot; every connection past that is shed on accept.
  const int busy = Connect(admin.port());
  Send(busy, "GET /block HTTP/1.1\r\n\r\n");
  entered.wait();
  const int queued = Connect(admin.port());
  Send(queued, "GET /healthz HTTP/1.1\r\n\r\n");
  constexpr int kShed = 3;
  for (int i = 0; i < kShed; ++i) {
    const std::string shed = ReadToEofAndClose(Connect(admin.port()));
    EXPECT_EQ(HttpStatusOf(shed), 503) << shed;
    EXPECT_NE(shed.find("admin handler pool saturated"), std::string::npos);
  }
  EXPECT_EQ(CounterValue("paygo.admin.sheds") - sheds_before,
            static_cast<std::uint64_t>(kShed));

  // Released, the handler serves the blocked and the queued connection.
  release.count_down();
  EXPECT_EQ(HttpStatusOf(ReadToEofAndClose(busy)), 200);
  EXPECT_EQ(HttpStatusOf(ReadToEofAndClose(queued)), 200);
  EXPECT_EQ(CounterValue("paygo.admin.sheds") - sheds_before,
            static_cast<std::uint64_t>(kShed));
  admin.Stop();
}

TEST(TcpEndpointTest, ShardShedsWithKErrorWhenThePoolIsFull) {
  const std::unique_ptr<PaygoServer> server = StartedEmptyServer();
  ShardServiceOptions options;
  options.handler_threads = 1;
  options.pending_connections = 1;
  ShardService service(*server, options);
  ASSERT_TRUE(service.Start().ok());
  const std::uint64_t sheds_before = CounterValue("paygo.shard.service.sheds");
  const std::uint64_t requests_before =
      CounterValue("paygo.shard.service.requests");

  // The latch here is the client: the one handler blocks reading a
  // request frame this connection has not sent yet.
  const int busy = Connect(service.port());
  ASSERT_TRUE(
      WaitForCounter("paygo.shard.service.requests", requests_before + 1));
  const int queued = Connect(service.port());
  constexpr int kShed = 3;
  for (int i = 0; i < kShed; ++i) {
    const int fd = Connect(service.port());
    Result<Frame> shed = ReadFrame(fd);
    ::close(fd);
    ASSERT_TRUE(shed.ok()) << shed.status();
    EXPECT_EQ(shed->type, FrameType::kError);
    EXPECT_EQ(shed->payload, "shard handler pool saturated");
  }
  EXPECT_EQ(CounterValue("paygo.shard.service.sheds") - sheds_before,
            static_cast<std::uint64_t>(kShed));

  for (const int fd : {busy, queued}) {
    ASSERT_TRUE(WriteFrame(fd, FrameType::kPing, "").ok());
    Result<Frame> pong = ReadFrame(fd);
    ::close(fd);
    ASSERT_TRUE(pong.ok()) << pong.status();
    EXPECT_EQ(pong->type, FrameType::kPong);
  }
  EXPECT_EQ(CounterValue("paygo.shard.service.sheds") - sheds_before,
            static_cast<std::uint64_t>(kShed));
  service.Stop();
}

// --- (b) liveness under garbage ---

TEST(TcpEndpointTest, ShardServiceAnswersPingAfterGarbageFrames) {
  const std::unique_ptr<PaygoServer> server = StartedEmptyServer();
  ShardServiceOptions options;
  options.handler_threads = 1;  // the same thread must survive every case
  ShardService service(*server, options);
  ASSERT_TRUE(service.Start().ok());
  const std::uint64_t errors_before =
      CounterValue("paygo.shard.service.errors");

  // A truncated header, then EOF: dropped without an answer.
  int fd = Connect(service.port());
  Send(fd, std::string("\x03\x00\x00", 3));
  ::shutdown(fd, SHUT_WR);
  EXPECT_EQ(ReadToEofAndClose(fd), "");

  // A length field above ReadFrame's 64 MB limit: refused before any
  // payload is read or allocated.
  fd = Connect(service.port());
  Send(fd,
       FrameHeader(0xffffffffu, static_cast<std::uint8_t>(FrameType::kPing)));
  EXPECT_EQ(ReadToEofAndClose(fd), "");

  // An unknown frame type: answered with kError.
  fd = Connect(service.port());
  Send(fd, FrameHeader(0, 200));
  Result<Frame> unknown = ReadFrame(fd);
  ::close(fd);
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_EQ(unknown->type, FrameType::kError);
  EXPECT_EQ(unknown->payload, "unsupported frame type 200");

  // A kTraceContext preamble, then EOF instead of the request frame.
  fd = Connect(service.port());
  WireTraceContext ctx;
  ctx.trace_id = 7;
  ctx.sampled = true;
  ASSERT_TRUE(WriteFrame(fd, FrameType::kTraceContext,
                         EncodeTraceContext(ctx))
                  .ok());
  ::shutdown(fd, SHUT_WR);
  EXPECT_EQ(ReadToEofAndClose(fd), "");

  EXPECT_EQ(CounterValue("paygo.shard.service.errors") - errors_before, 4u);

  Result<Frame> pong =
      CallOnce("127.0.0.1", service.port(), FrameType::kPing, "", 2000);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->type, FrameType::kPong);
  EXPECT_EQ(pong->payload, std::to_string(server->generation()));
  service.Stop();
}

TEST(TcpEndpointTest, AdminServerStaysHealthyAndReadyAfterGarbage) {
  auto system = IntegrationSystem::Build(SmallCorpus());
  ASSERT_TRUE(system.ok()) << system.status();
  ServeOptions serve_options;
  serve_options.admin_port = 0;
  PaygoServer server(std::move(*system), serve_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.admin(), nullptr);
  const std::uint16_t port = server.admin()->port();
  ASSERT_EQ(HttpStatusOf(HttpGet(port, "/readyz")), 200);

  // Non-HTTP bytes, then EOF before any header terminator: 400.
  int fd = Connect(port);
  Send(fd, std::string("\x16\x03\x01\x00\xa5garbage\x00\xff", 14));
  ::shutdown(fd, SHUT_WR);
  EXPECT_EQ(HttpStatusOf(ReadToEofAndClose(fd)), 400);

  // A header that reaches max_request_bytes (1 MiB by default) without
  // ending: 413. Exactly the cap is sent, so the server reads every byte
  // and closes cleanly instead of resetting the connection.
  fd = Connect(port);
  std::string huge = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  huge.resize(server.admin()->options().max_request_bytes, 'x');
  Send(fd, huge);
  EXPECT_EQ(HttpStatusOf(ReadToEofAndClose(fd)), 413);

  EXPECT_EQ(HttpStatusOf(HttpGet(port, "/healthz")), 200);
  EXPECT_EQ(HttpStatusOf(HttpGet(port, "/readyz")), 200);
  server.Stop();
}

// A request past the cap: the server answers 413 with the rest of the
// request still on its way. It must read that rest (bounded) before it
// closes, or the close resets the connection and the client, reading only
// after its send, can lose the 413.
TEST(TcpEndpointTest, AdminAnswers413AndClosesCleanlyPastTheCap) {
  AdminServer admin;
  ASSERT_TRUE(admin.Start().ok());
  const int fd = Connect(admin.port());
  std::string huge = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  huge.resize(admin.options().max_request_bytes + 64 * 1024, 'x');
  Send(fd, huge);
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char chunk[4096];
  int error = 0;
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) error = errno;
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(error, 0) << std::strerror(error);
  EXPECT_EQ(HttpStatusOf(response), 413);
  const std::string body = "request exceeds " +
                           std::to_string(admin.options().max_request_bytes) +
                           " bytes\n";
  EXPECT_TRUE(response.ends_with("\r\n\r\n" + body)) << response;
  admin.Stop();
}

// --- (c) Start's checks ---

TEST(TcpEndpointTest, StartRejectsRestartBadPortAndBadAddress) {
  {
    AdminServer admin;
    ASSERT_TRUE(admin.Start().ok());
    admin.Stop();
    EXPECT_TRUE(admin.Start().status().IsFailedPrecondition());
    EXPECT_FALSE(admin.running());

    AdminServerOptions bad_port;
    bad_port.port = 70000;
    EXPECT_TRUE(AdminServer(bad_port).Start().status().IsInvalidArgument());

    AdminServerOptions bad_address;
    bad_address.bind_address = "not-an-ip";
    const Status status = AdminServer(bad_address).Start().status();
    EXPECT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("admin"), std::string::npos) << status;
  }
  {
    const std::unique_ptr<PaygoServer> server = StartedEmptyServer();
    ShardService service(*server);
    ASSERT_TRUE(service.Start().ok());
    service.Stop();
    EXPECT_TRUE(service.Start().status().IsFailedPrecondition());
    EXPECT_FALSE(service.running());

    ShardServiceOptions bad_port;
    bad_port.port = 70000;
    EXPECT_TRUE(ShardService(*server, bad_port)
                    .Start()
                    .status()
                    .IsInvalidArgument());

    ShardServiceOptions bad_address;
    bad_address.bind_address = "not-an-ip";
    const Status status = ShardService(*server, bad_address).Start().status();
    EXPECT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("shard"), std::string::npos) << status;
  }
}

}  // namespace
}  // namespace paygo
