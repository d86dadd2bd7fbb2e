// Framed transport abstraction: how sealed RMI payloads travel between a
// client channel and a provider endpoint.
//
// A transport is deliberately dumb: it carries opaque sealed payloads under
// a fixed-width frame header and matches responses to requests by request
// id. Everything that makes the simulation deterministic — the NetworkModel
// time charges, the FaultyTransport chaos plans, retry/backoff — stays in
// RmiChannel::attemptOnce on the client side, so the in-process loopback
// backend and the socket backend produce bit-identical accounting for the
// same seeds.
//
// Wire framing (all integers big-endian, matching net::ByteBuffer):
//
//   request frame            response frame
//   ---------------------    -----------------------
//   u32 magic 'VCRQ'         u32 magic 'VCRS'
//   u32 method id            u32 status (FrameStatus)
//   u64 request id           u64 request id
//   u64 tenant id            u64 server CPU nanos
//   u32 priority             u32 payload length
//   u32 payload length       payload bytes...
//   payload bytes...
//
// The tenant id and priority live in the *frame* header, not the sealed
// payload: a multi-tenant front end must route and shed before it spends
// any cycles opening the checksum, and the sealed request bytes stay
// identical across single- and multi-tenant deployments (same fault-plan
// corruption surface, same byte accounting).
//
// The payload is the sealed (checksummed) marshalled rmi::Request /
// rmi::Response — exactly the bytes the in-process path exchanges, so byte
// accounting and fault-plan corruption operate on identical content across
// backends. The request id is unique per *transmission attempt* (a
// retransmission gets a fresh id), which is what lets a pipelined client
// match out-of-order responses and drop stale ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vcad::net {

/// Typed status of one response frame. Distinct from rmi::Status: this is
/// the *carrier's* verdict (did a well-formed reply come back at all), not
/// the RMI-level outcome encoded inside the payload.
enum class FrameStatus : std::uint32_t {
  Ok = 0,               // payload carries a sealed rmi::Response
  MalformedRequest = 1,  // frame arrived intact but the payload would not
                         // unmarshal (protocol bug or hostile client)
  TooManyPending = 2,   // server admission control shed the request
                         // (per-priority queue lane at capacity)
  Shutdown = 3,         // server is draining connections
  Overloaded = 4,       // total job-queue depth at capacity — the server as
                         // a whole is saturated, not just one lane
  QuotaExceeded = 5,    // the tenant's fee/call quota is exhausted; the
                         // client must NOT retry (deterministic rejection)
  ConnectionLimit = 6,  // the tenant is at its per-tenant connection cap;
                         // the server closes this connection after the
                         // reply — reuse an existing connection instead
};

std::string toString(FrameStatus s);

/// Priority lane of one request through a multi-tenant provider's job
/// queue (the rippled JobQueue idiom: per-method job types with
/// priorities). Lower value = more urgent. Stamped client-side from the
/// method id (rmi::priorityFor); single-tenant servers ignore it.
enum class JobPriority : std::uint32_t {
  Control = 0,  // session open/close — must get through even under load
  Query = 1,    // cheap metadata reads (catalog, fault list, negotiate)
  Compute = 2,  // single-shot simulation work (eval, estimates, seq steps)
  Batch = 3,    // bulk buffers (pattern-buffer power, batched tables)
};

inline constexpr std::uint32_t kJobPriorityCount = 4;

std::string toString(JobPriority p);

inline constexpr std::uint32_t kRequestMagic = 0x56435251u;   // 'VCRQ'
inline constexpr std::uint32_t kResponseMagic = 0x56435253u;  // 'VCRS'
inline constexpr std::size_t kRequestHeaderBytes = 32;
inline constexpr std::size_t kResponseHeaderBytes = 28;
/// A header announcing more than this is treated as malformed — it can only
/// come from a desynchronized or hostile stream, never from this client.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 64u << 20;

struct RequestFrameHeader {
  std::uint32_t methodId = 0;
  std::uint64_t requestId = 0;
  /// Which tenant's ledger/quota/replay-shard this request bills against.
  /// 0 = the anonymous single-tenant default.
  std::uint64_t tenantId = 0;
  JobPriority priority = JobPriority::Query;
  std::uint32_t payloadBytes = 0;
};

struct ResponseFrameHeader {
  FrameStatus status = FrameStatus::Ok;
  std::uint64_t requestId = 0;
  std::uint64_t serverCpuNanos = 0;
  std::uint32_t payloadBytes = 0;
};

/// Encodes header + payload into one contiguous frame. The header's
/// payloadBytes field is overwritten with payload.size().
std::vector<std::uint8_t> encodeRequestFrame(
    RequestFrameHeader header, const std::vector<std::uint8_t>& payload);
std::vector<std::uint8_t> encodeResponseFrame(
    ResponseFrameHeader header, const std::vector<std::uint8_t>& payload);

/// Decodes a header from exactly kRequestHeaderBytes / kResponseHeaderBytes
/// bytes. Returns false — leaving `out` unspecified — on short input, a
/// wrong magic, or an oversized payload length. Every strict prefix of a
/// valid header is rejected, never misread.
bool decodeRequestFrameHeader(const std::uint8_t* data, std::size_t size,
                              RequestFrameHeader& out);
bool decodeResponseFrameHeader(const std::uint8_t* data, std::size_t size,
                               ResponseFrameHeader& out);

/// Blocking stream-socket I/O for the framed backends. readFully reads
/// exactly n bytes (false on EOF or error); writeFully writes exactly n
/// bytes with MSG_NOSIGNAL (false on error). Both retry EINTR and short
/// transfers.
bool readFully(int fd, std::uint8_t* buf, std::size_t n);
bool writeFully(int fd, const std::uint8_t* buf, std::size_t n);

/// What one awaited response frame delivered.
struct TransportReply {
  bool delivered = false;  // a frame for this request id arrived in time
  FrameStatus status = FrameStatus::Ok;
  double serverCpuSec = 0.0;  // provider-measured dispatch compute
  std::vector<std::uint8_t> sealedPayload;  // sealed marshalled rmi::Response
};

/// One framed, request-id-matched wire to a provider. Implementations:
/// rmi::LoopbackTransport (in-process dispatch, zero real latency) and
/// net::SocketTransport (Unix-domain or TCP stream to a provider process).
/// All methods are thread-safe; a channel pipelines by sending several
/// frames before awaiting any reply.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Ships one sealed request payload under `header` (whose payloadBytes
  /// field is recomputed from the payload). Never blocks on the response.
  virtual void send(const RequestFrameHeader& header,
                    const std::vector<std::uint8_t>& sealedPayload) = 0;

  /// Awaits the next response frame carrying `requestId`.
  /// `realDeadlineSec` bounds the *real-time* wait (the simulated deadline
  /// lives in RetryPolicy); loopback backends complete immediately and
  /// ignore it. Not delivered = nothing arrived (dropped, discarded
  /// server-side, or the wire died).
  virtual TransportReply awaitReply(std::uint64_t requestId,
                                    double realDeadlineSec) = 0;

  /// Forgets a request id: any buffered or late reply for it is discarded
  /// (and counted as unknown by stream backends). Called once per attempt
  /// so abandoned exchanges cannot accumulate.
  virtual void discard(std::uint64_t requestId) { (void)requestId; }

  /// False once the wire is known dead (peer closed, stream desync).
  virtual bool alive() const { return true; }

  virtual std::string peerName() const = 0;
};

}  // namespace vcad::net
