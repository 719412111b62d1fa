#include "shard/wire.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>

namespace paygo {

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  char header[5];
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<char>(len & 0xff);
  header[1] = static_cast<char>((len >> 8) & 0xff);
  header[2] = static_cast<char>((len >> 16) & 0xff);
  header[3] = static_cast<char>((len >> 24) & 0xff);
  header[4] = static_cast<char>(type);
  PAYGO_RETURN_NOT_OK(SendAll(fd, header, sizeof(header)));
  return SendAll(fd, payload.data(), payload.size());
}

Result<Frame> ReadFrame(int fd, std::size_t max_bytes) {
  char header[5];
  PAYGO_RETURN_NOT_OK(RecvAll(fd, header, sizeof(header)));
  const std::uint32_t len =
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[0])) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[2]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[3]))
       << 24);
  if (len > max_bytes) {
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds the " +
                                   std::to_string(max_bytes) + " byte limit");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(static_cast<std::uint8_t>(header[4]));
  frame.payload.resize(len);
  if (len > 0) {
    PAYGO_RETURN_NOT_OK(RecvAll(fd, frame.payload.data(), len));
  }
  return frame;
}

Result<int> ConnectWithRetry(const std::string& host, std::uint16_t port,
                             std::uint64_t timeout_ms, std::size_t attempts,
                             std::uint64_t backoff_ms) {
  if (attempts == 0) attempts = 1;
  Status last = Status::OK();
  for (std::size_t attempt = 1; attempt <= attempts; ++attempt) {
    Result<int> fd = TcpConnect(host, port, timeout_ms);
    if (fd.ok()) return fd;
    last = fd.status();
    if (attempt < attempts) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(attempt * backoff_ms));
    }
  }
  return last;
}

Result<Frame> CallOnce(const std::string& host, std::uint16_t port,
                       FrameType type, std::string_view payload,
                       std::uint64_t timeout_ms) {
  return CallOnceTraced(host, port, type, payload, timeout_ms, nullptr);
}

std::string EncodeTraceContext(const WireTraceContext& ctx) {
  return std::to_string(ctx.trace_id) + " " +
         std::to_string(ctx.parent_span_id) + " " +
         (ctx.sampled ? "1" : "0") + " " + std::to_string(ctx.deadline_us);
}

Result<WireTraceContext> ParseTraceContext(std::string_view payload) {
  const std::string text(payload);
  WireTraceContext ctx;
  char* cursor = nullptr;
  ctx.trace_id = std::strtoull(text.c_str(), &cursor, 10);
  if (cursor == text.c_str() || *cursor != ' ') {
    return Status::InvalidArgument("bad trace context '" + text + "'");
  }
  char* next = nullptr;
  ctx.parent_span_id = std::strtoull(cursor + 1, &next, 10);
  if (next == cursor + 1 || *next != ' ') {
    return Status::InvalidArgument("bad trace context '" + text + "'");
  }
  cursor = next;
  const unsigned long long sampled = std::strtoull(cursor + 1, &next, 10);
  if (next == cursor + 1 || *next != ' ' || sampled > 1) {
    return Status::InvalidArgument("bad trace context '" + text + "'");
  }
  ctx.sampled = sampled == 1;
  cursor = next;
  ctx.deadline_us = std::strtoull(cursor + 1, &next, 10);
  if (next == cursor + 1 || *next != '\0') {
    return Status::InvalidArgument("bad trace context '" + text + "'");
  }
  if (ctx.trace_id == 0) {
    return Status::InvalidArgument("trace context requires a nonzero id");
  }
  return ctx;
}

Result<Frame> CallOnceTraced(const std::string& host, std::uint16_t port,
                             FrameType type, std::string_view payload,
                             std::uint64_t timeout_ms,
                             const WireTraceContext* ctx) {
  PAYGO_ASSIGN_OR_RETURN(const int fd, TcpConnect(host, port, timeout_ms));
  Status sent = Status::OK();
  if (ctx != nullptr) {
    sent = WriteFrame(fd, FrameType::kTraceContext, EncodeTraceContext(*ctx));
  }
  if (sent.ok()) sent = WriteFrame(fd, type, payload);
  if (!sent.ok()) {
    ::close(fd);
    return sent;
  }
  Result<Frame> reply = ReadFrame(fd);
  ::close(fd);
  return reply;
}

}  // namespace paygo
