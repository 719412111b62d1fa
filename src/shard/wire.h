#ifndef PAYGO_SHARD_WIRE_H_
#define PAYGO_SHARD_WIRE_H_

/// \file wire.h
/// \brief The minimal length-prefixed binary protocol between shard nodes.
///
/// Every message is one frame:
///
///     u32 LE payload length | u8 frame type | payload bytes
///
/// and every connection carries exactly one request frame and one response
/// frame (connection-per-request, mirroring the admin endpoint's
/// Connection: close HTTP). That trades connection setup cost for zero
/// protocol state — no pipelining, no message boundaries to resync after
/// an error, and a replica that dies mid-frame costs the peer one read
/// timeout, nothing more.
///
/// Payloads are the repo's existing text formats (corpus_io, model_io
/// snapshot v3): the wire layer frames bytes, it does not define a second
/// serialization.

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace paygo {

/// Frame types. Values are wire-visible; append, never renumber.
enum class FrameType : std::uint8_t {
  kPing = 1,           ///< empty payload
  kPong = 2,           ///< payload: decimal serving generation
  kClassify = 3,       ///< payload: "<k>\n<query>"
  kClassifyResult = 4, ///< payload: "ok <gen> <n>\n" + n result lines
  kSnapshotPull = 5,   ///< payload: decimal synced primary generation
  kSnapshotFull = 6,   ///< payload: "gen <g>\n" + snapshot v3 text
  kSnapshotDelta = 7,  ///< payload: "gen <g>\n" + replication records
  kUpToDate = 8,       ///< payload: decimal current generation
  kError = 9,          ///< payload: human-readable reason
  kAddSchema = 10,     ///< payload: one-schema corpus_io text
  kAck = 11,           ///< payload: decimal generation after the write
  kTraceContext = 12,  ///< payload: "<trace_id> <parent_span_id> <sampled>
                       ///< <deadline_us>"; optional preamble preceding the
                       ///< request frame on the same connection
  kTraceFetch = 13,    ///< payload: decimal trace id filter (0 = all)
  kTraceEvents = 14,   ///< payload: "now <server_now_us> <n>\n" + n lines
                       ///< "<start_us> <dur_us> <trace_id> <tid> <depth>
                       ///< <name>"
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Writes one frame; tolerates short writes, never raises SIGPIPE.
Status WriteFrame(int fd, FrameType type, std::string_view payload);

/// Reads one frame. Frames longer than \p max_bytes are rejected without
/// reading the payload (a garbage length prefix must not allocate 4 GB).
/// Snapshots of big corpora are the largest legitimate frames; 64 MB
/// clears the thesis-scale DDH corpus by two orders of magnitude.
Result<Frame> ReadFrame(int fd, std::size_t max_bytes = 64u << 20);

/// Connects to host:port with connect + IO timeouts applied. Returns the
/// connected fd; the caller owns (and closes) it.
Result<int> TcpConnect(const std::string& host, std::uint16_t port,
                       std::uint64_t timeout_ms);

/// TcpConnect with linear retry-backoff: \p attempts tries, sleeping
/// attempt * \p backoff_ms between failures. Replica bootstrap uses this
/// to ride out the primary starting a beat later than the replica.
Result<int> ConnectWithRetry(const std::string& host, std::uint16_t port,
                             std::uint64_t timeout_ms, std::size_t attempts,
                             std::uint64_t backoff_ms);

/// One round trip on a fresh connection: connect, send \p request, read
/// the response frame, close.
Result<Frame> CallOnce(const std::string& host, std::uint16_t port,
                       FrameType type, std::string_view payload,
                       std::uint64_t timeout_ms);

/// \brief Trace context carried across a hop as a kTraceContext preamble.
///
/// The preamble is a *separate frame* written before the request frame on
/// the same connection, so the request payloads themselves stay
/// byte-identical to the untraced protocol — an old server reading an
/// unexpected kTraceContext frame fails one request loudly instead of
/// misparsing every payload, and a router with tracing disabled emits no
/// preamble at all (zero idle wire cost).
struct WireTraceContext {
  std::uint64_t trace_id = 0;        ///< Originating request id (nonzero).
  std::uint64_t parent_span_id = 0;  ///< Caller-side span id; 0 = root.
  bool sampled = false;              ///< Record spans server-side?
  std::uint64_t deadline_us = 0;     ///< Remaining budget in µs; 0 = none.
};

/// Space-separated decimal encoding: "<trace_id> <parent_span_id>
/// <sampled:0|1> <deadline_us>".
std::string EncodeTraceContext(const WireTraceContext& ctx);
Result<WireTraceContext> ParseTraceContext(std::string_view payload);

/// CallOnce that, when \p ctx is non-null, writes a kTraceContext preamble
/// frame before the request frame. A null \p ctx is exactly CallOnce — the
/// idle cost of propagation is this one pointer test.
Result<Frame> CallOnceTraced(const std::string& host, std::uint16_t port,
                             FrameType type, std::string_view payload,
                             std::uint64_t timeout_ms,
                             const WireTraceContext* ctx);

}  // namespace paygo

#endif  // PAYGO_SHARD_WIRE_H_
