#include "obs/admin_server.h"

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/stats.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace paygo {

namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

void SendResponse(int fd, const HttpResponse& response) {
  std::ostringstream head;
  head << "HTTP/1.1 " << response.status << " "
       << ReasonPhrase(response.status) << "\r\n"
       << "Content-Type: " << response.content_type << "\r\n"
       << "Content-Length: " << response.body.size() << "\r\n"
       << "Connection: close\r\n";
  if (response.status == 405) head << "Allow: GET\r\n";
  head << "\r\n";
  const std::string header = head.str();
  // A failed send means the peer is gone or timed out; nothing to salvage.
  if (SendAll(fd, header.data(), header.size()).ok()) {
    SendAll(fd, response.body.data(), response.body.size());
  }
}

HttpResponse PlainResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

/// Case-insensitive ASCII compare of \p text against lowercase \p lower.
bool EqualsIgnoreCase(const std::string& text, const char* lower) {
  std::size_t i = 0;
  for (; text[i] != '\0' && lower[i] != '\0'; ++i) {
    char c = text[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower[i]) return false;
  }
  return i == text.size() && lower[i] == '\0';
}

std::string Trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

struct AdminCounters {
  Counter* requests;
  Counter* errors;  // 4xx/5xx responses, including malformed requests
  Counter* sheds;   // connections 503'd because the handler pool was full
  LatencyHistogram* latency;

  static AdminCounters& Get() {
    static AdminCounters counters = [] {
      StatsRegistry& reg = StatsRegistry::Global();
      return AdminCounters{reg.GetCounter("paygo.admin.requests"),
                           reg.GetCounter("paygo.admin.errors"),
                           reg.GetCounter("paygo.admin.sheds"),
                           reg.GetHistogram("paygo.admin.request_us")};
    }();
    return counters;
  }
};

}  // namespace

AdminServer::AdminServer(AdminServerOptions options)
    : options_(std::move(options)),
      listener_("admin", options_, [this](int fd) { ServeConnection(fd); },
                [](int fd) {
                  AdminCounters::Get().sheds->Increment();
                  SendResponse(fd, PlainResponse(
                                       503, "admin handler pool saturated\n"));
                }) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Handle(std::string path, Handler handler) {
  // The route map is read lock-free by handler threads; mutating it while
  // serving would race. Registration is a setup-time operation.
  if (running()) return;
  handlers_[std::move(path)] = std::move(handler);
}

HttpResponse AdminServer::Dispatch(const HttpRequest& request) const {
  const auto it = handlers_.find(request.path);
  if (it == handlers_.end()) {
    if (request.path == "/") {
      // Default index: one registered path per line.
      std::string index;
      for (const auto& [path, handler] : handlers_) {
        index += path;
        index += '\n';
      }
      return PlainResponse(200, std::move(index));
    }
    return PlainResponse(404, "no handler for " + request.path + "\n");
  }
  try {
    return it->second(request);
  } catch (const std::exception& e) {
    return PlainResponse(500, std::string("handler threw: ") + e.what() +
                                  "\n");
  } catch (...) {
    return PlainResponse(500, "handler threw\n");
  }
}

void AdminServer::DrainBeforeClose(int fd) const {
  // Closing with unread bytes queued makes the kernel reset the
  // connection, and a reset can discard the response before the client
  // reads it. So end the response with a FIN, then read and drop the rest
  // of the request: at most max_request_bytes more, within the I/O
  // timeout (each recv waits at most that long too).
  ::shutdown(fd, SHUT_WR);
  const WallTimer timer;
  char chunk[4096];
  std::size_t drained = 0;
  while (drained < options_.max_request_bytes &&
         timer.ElapsedMillis() < static_cast<double>(options_.io_timeout_ms)) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return;
    drained += static_cast<std::size_t>(n);
  }
}

void AdminServer::ServeConnection(int fd) {
  WallTimer timer;
  AdminCounters& counters = AdminCounters::Get();
  counters.requests->Increment();

  // Read until the header terminator. GET requests have no body we care
  // about, so the headers are the whole request.
  std::string buffer;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    if (buffer.size() >= options_.max_request_bytes) {
      counters.errors->Increment();
      SendResponse(fd, PlainResponse(413, "request exceeds " +
                                              std::to_string(
                                                  options_.max_request_bytes) +
                                              " bytes\n"));
      DrainBeforeClose(fd);
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      // Peer closed or timed out mid-request. Nothing well-formed arrived;
      // answer 400 if we got anything at all, otherwise just drop.
      if (!buffer.empty()) {
        counters.errors->Increment();
        SendResponse(fd, PlainResponse(400, "incomplete request\n"));
      }
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    header_end = buffer.find("\r\n\r\n");
  }

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t line_end = buffer.find("\r\n");
  const std::string line = buffer.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    counters.errors->Increment();
    SendResponse(fd, PlainResponse(400, "malformed request line\n"));
    return;
  }
  HttpRequest request;
  request.method = line.substr(0, sp1);
  request.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = request.target.find('?');
  request.path = request.target.substr(0, qmark);
  if (qmark != std::string::npos) request.query = request.target.substr(qmark + 1);
  if (request.target.empty() || request.target[0] != '/') {
    counters.errors->Increment();
    SendResponse(fd, PlainResponse(400, "request target must be a path\n"));
    return;
  }
  if (request.method != "GET") {
    counters.errors->Increment();
    SendResponse(fd, PlainResponse(405, "only GET is supported\n"));
    return;
  }

  // Headers: only Host matters to us (it anchors the parse, and tests
  // assert we accept standard clients); everything else is skipped.
  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    std::size_t eol = buffer.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    const std::string header = buffer.substr(pos, eol - pos);
    const std::size_t colon = header.find(':');
    if (colon != std::string::npos &&
        EqualsIgnoreCase(header.substr(0, colon), "host")) {
      request.host = Trim(header.substr(colon + 1));
    }
    pos = eol + 2;
  }

  // Pooled thread hygiene: whatever trace id a handler installs (e.g. a
  // router endpoint running a traced scatter) is restored before this
  // thread serves its next connection.
  ScopedTraceContext trace_guard(0);
  const HttpResponse response = Dispatch(request);
  if (response.status >= 400) counters.errors->Increment();
  SendResponse(fd, response);
  counters.latency->Record(timer.ElapsedMicros());
}

// A "key=value&key=value" query-string lookup; returns 0 when \p key is
// absent or non-numeric (0 is never a valid trace id, so it doubles as
// "no filter").
std::uint64_t QueryParamU64(const std::string& query, const std::string& key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.compare(0, eq, key) == 0) {
      return std::strtoull(pair.c_str() + eq + 1, nullptr, 10);
    }
    pos = amp + 1;
  }
  return 0;
}

// ------------------------------------------------ obs-level endpoints

void RegisterObsEndpoints(AdminServer& admin) {
  admin.Handle("/healthz", [](const HttpRequest&) {
    return PlainResponse(200, "ok\n");
  });
  admin.Handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = StatsRegistry::Global().ToPrometheus();
    return response;
  });
  admin.Handle("/varz", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = StatsRegistry::Global().ToJson() + "\n";
    return response;
  });
  admin.Handle("/tracez", [](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    // /tracez?trace_id=N narrows the dump to one request's spans.
    response.body =
        Tracer::ExportChromeTrace(QueryParamU64(request.query, "trace_id"));
    return response;
  });
}

// ------------------------------------------------- loopback test client

Result<std::string> AdminHttpGet(std::uint16_t port, const std::string& target,
                                 std::uint64_t timeout_ms) {
  PAYGO_ASSIGN_OR_RETURN(const int fd,
                         TcpConnect("127.0.0.1", port, timeout_ms));
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  const Status sent = SendAll(fd, request.data(), request.size());
  if (!sent.ok()) {
    ::close(fd);
    return sent;
  }
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (response.empty()) {
    return Status::IoError("empty response from 127.0.0.1:" +
                           std::to_string(port) + target);
  }
  return response;
}

}  // namespace paygo
