#include "net/transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace vcad::net {

namespace {

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  putU32(out, static_cast<std::uint32_t>(v >> 32));
  putU32(out, static_cast<std::uint32_t>(v));
}

std::uint32_t getU32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t getU64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(getU32(p)) << 32) | getU32(p + 4);
}

}  // namespace

std::string toString(FrameStatus s) {
  switch (s) {
    case FrameStatus::Ok:
      return "Ok";
    case FrameStatus::MalformedRequest:
      return "MalformedRequest";
    case FrameStatus::TooManyPending:
      return "TooManyPending";
    case FrameStatus::Shutdown:
      return "Shutdown";
    case FrameStatus::Overloaded:
      return "Overloaded";
    case FrameStatus::QuotaExceeded:
      return "QuotaExceeded";
    case FrameStatus::ConnectionLimit:
      return "ConnectionLimit";
  }
  return "FrameStatus(" + std::to_string(static_cast<std::uint32_t>(s)) + ")";
}

std::string toString(JobPriority p) {
  switch (p) {
    case JobPriority::Control:
      return "Control";
    case JobPriority::Query:
      return "Query";
    case JobPriority::Compute:
      return "Compute";
    case JobPriority::Batch:
      return "Batch";
  }
  return "JobPriority(" + std::to_string(static_cast<std::uint32_t>(p)) + ")";
}

std::vector<std::uint8_t> encodeRequestFrame(
    RequestFrameHeader header, const std::vector<std::uint8_t>& payload) {
  header.payloadBytes = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out;
  out.reserve(kRequestHeaderBytes + payload.size());
  putU32(out, kRequestMagic);
  putU32(out, header.methodId);
  putU64(out, header.requestId);
  putU64(out, header.tenantId);
  putU32(out, static_cast<std::uint32_t>(header.priority));
  putU32(out, header.payloadBytes);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> encodeResponseFrame(
    ResponseFrameHeader header, const std::vector<std::uint8_t>& payload) {
  header.payloadBytes = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out;
  out.reserve(kResponseHeaderBytes + payload.size());
  putU32(out, kResponseMagic);
  putU32(out, static_cast<std::uint32_t>(header.status));
  putU64(out, header.requestId);
  putU64(out, header.serverCpuNanos);
  putU32(out, header.payloadBytes);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool decodeRequestFrameHeader(const std::uint8_t* data, std::size_t size,
                              RequestFrameHeader& out) {
  if (data == nullptr || size < kRequestHeaderBytes) return false;
  if (getU32(data) != kRequestMagic) return false;
  out.methodId = getU32(data + 4);
  out.requestId = getU64(data + 8);
  out.tenantId = getU64(data + 16);
  const std::uint32_t priority = getU32(data + 24);
  // An out-of-range priority can only come from a desynchronized or hostile
  // stream — reject it like a bad magic rather than clamping.
  if (priority >= kJobPriorityCount) return false;
  out.priority = static_cast<JobPriority>(priority);
  out.payloadBytes = getU32(data + 28);
  return out.payloadBytes <= kMaxFramePayloadBytes;
}

bool decodeResponseFrameHeader(const std::uint8_t* data, std::size_t size,
                               ResponseFrameHeader& out) {
  if (data == nullptr || size < kResponseHeaderBytes) return false;
  if (getU32(data) != kResponseMagic) return false;
  const std::uint32_t status = getU32(data + 4);
  if (status > static_cast<std::uint32_t>(FrameStatus::ConnectionLimit)) {
    return false;
  }
  out.status = static_cast<FrameStatus>(status);
  out.requestId = getU64(data + 8);
  out.serverCpuNanos = getU64(data + 16);
  out.payloadBytes = getU32(data + 24);
  return out.payloadBytes <= kMaxFramePayloadBytes;
}

bool readFully(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool writeFully(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t w = ::send(fd, buf + put, n - put, MSG_NOSIGNAL);
    if (w > 0) {
      put += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace vcad::net
