// Benchmark-side tracing: an in-memory span recorder, per-layer counters,
// and the decorators that time each layer from outside the program.
//
// The decorators wrap the layer interfaces the campaign and tenant rigs are
// built from (rmi::ServerEndpoint, net::Transport, fault::FaultClient,
// ip::PublicPartSource / PublicPart::functional). They exist only in a
// traced run; an untraced run wires the rig without them. Each one records
// a span (name, start, end, parent) and adds its busy time and work count to
// LayerCounters, so ratios are measured where the work happens.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/fault_client.hpp"
#include "ip/provider_server.hpp"
#include "net/transport.hpp"
#include "rmi/channel.hpp"

namespace vbench {

namespace fault = vcad::fault;
namespace ip = vcad::ip;
namespace net = vcad::net;
namespace rmi = vcad::rmi;

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root (no enclosing span on this thread)
  std::uint32_t thread = 0;
};

/// Spans live in per-thread buffers owned by the recorder, so recording
/// takes no lock. clear() and spans() may only run while no traced work is
/// in flight.
class SpanRecorder {
 public:
  static SpanRecorder& global();

  /// Opens a span on the calling thread; its parent is the innermost span
  /// still open on this thread. Returns the span's slot for end().
  std::size_t begin(const char* name);
  void end(std::size_t slot);
  /// Depth of open spans on the calling thread.
  static int depth();

  void clear();
  std::vector<Span> spans() const;
  /// Writes every recorded span as JSON; returns false on an I/O error.
  bool writeJson(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::uint64_t nextId = 1;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  // slots of the spans still open
  };
  Buffer& local();

  mutable std::mutex mutex_;  // guards buffers_ (registration, readout)
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : slot_(SpanRecorder::global().begin(name)) {}
  ~ScopedSpan() { SpanRecorder::global().end(slot_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::size_t slot_;
};

/// Busy time (ns) and work counts per layer, summed by the decorators.
struct LayerCounters {
  std::atomic<std::int64_t> tableDispatchNs{0};   // table methods only
  std::atomic<std::uint64_t> tableDispatchCalls{0};
  std::atomic<std::uint64_t> tableDispatchConfigs{0};
  std::atomic<std::int64_t> frontDispatchNs{0};   // dispatches that ran on a
  std::atomic<std::uint64_t> frontDispatchCalls{0};  // provider thread
  std::atomic<std::int64_t> sendNs{0};
  std::atomic<std::int64_t> awaitNs{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::int64_t> tableFetchNs{0};
  std::atomic<std::uint64_t> tableFetchCalls{0};
  std::atomic<std::uint64_t> tableFetchConfigs{0};
  std::atomic<std::int64_t> publicEvalNs{0};
  std::atomic<std::uint64_t> publicEvalCalls{0};

  void reset();
};

LayerCounters& counters();

/// rmi::ServerEndpoint decorator: spans "ip.dispatch" around every request
/// the provider executes. Forwards the public-part download when the target
/// offers one, so loopback discovery survives the wrapping.
class TracedEndpoint final : public rmi::ServerEndpoint,
                             public ip::PublicPartSource {
 public:
  explicit TracedEndpoint(rmi::ServerEndpoint& target) : target_(&target) {}
  explicit TracedEndpoint(std::unique_ptr<rmi::ServerEndpoint> owned)
      : owned_(std::move(owned)), target_(owned_.get()) {}

  rmi::Response dispatch(const rmi::Request& request) override;
  std::string hostName() const override { return target_->hostName(); }
  ip::PublicPart downloadPublicPart(const std::string& component,
                                    std::uint64_t param) const override;

 private:
  std::unique_ptr<rmi::ServerEndpoint> owned_;
  rmi::ServerEndpoint* target_;
};

/// net::Transport decorator: spans "net.send" and "net.await".
class TracedTransport final : public net::Transport {
 public:
  explicit TracedTransport(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  void send(const net::RequestFrameHeader& header,
            const std::vector<std::uint8_t>& sealedPayload) override;
  net::TransportReply awaitReply(std::uint64_t requestId,
                                 double realDeadlineSec) override;
  void discard(std::uint64_t requestId) override {
    inner_->discard(requestId);
  }
  bool alive() const override { return inner_->alive(); }
  std::string peerName() const override { return inner_->peerName(); }

 private:
  std::unique_ptr<net::Transport> inner_;
};

/// fault::FaultClient decorator: spans "fault.table_fetch" around every
/// detection-table fetch that leaves the campaign's client cache.
class TracedFaultClient final : public fault::FaultClient {
 public:
  explicit TracedFaultClient(fault::FaultClient& inner)
      : inner_(&inner) {}

  vcad::Module& module() override { return inner_->module(); }
  std::vector<std::string> faultList() override { return inner_->faultList(); }
  fault::DetectionTable detectionTable(const vcad::Word& inputs) override;
  std::vector<fault::DetectionTable> detectionTables(
      const std::vector<vcad::Word>& inputs) override;
  std::uint64_t versionDigest() const override {
    return inner_->versionDigest();
  }

 private:
  fault::FaultClient* inner_;
};

/// ip::PublicPartSource decorator: the downloaded PublicPart::functional is
/// wrapped in a "gate.public_eval" span.
class TracedPublicPartSource final : public ip::PublicPartSource {
 public:
  explicit TracedPublicPartSource(const ip::PublicPartSource& inner)
      : inner_(&inner) {}
  ip::PublicPart downloadPublicPart(const std::string& component,
                                    std::uint64_t param) const override;

 private:
  const ip::PublicPartSource* inner_;
};

}  // namespace vbench
