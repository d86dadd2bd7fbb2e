#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace vbench {
namespace {

thread_local std::shared_ptr<void> tlBuffer;  // keeps this thread's Buffer

/// Adds the elapsed time since `t0` to `ns`.
void addSince(std::atomic<std::int64_t>& ns, std::int64_t t0) {
  ns.fetch_add(nowNs() - t0, std::memory_order_relaxed);
}

bool isTableMethod(rmi::MethodId m) {
  return m == rmi::MethodId::GetDetectionTable ||
         m == rmi::MethodId::GetDetectionTables;
}

}  // namespace

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::Buffer& SpanRecorder::local() {
  if (tlBuffer == nullptr) {
    auto b = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(mutex_);
    b->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(b);
    tlBuffer = b;
  }
  return *static_cast<Buffer*>(tlBuffer.get());
}

std::size_t SpanRecorder::begin(const char* name) {
  Buffer& b = local();
  Span s;
  s.name = name;
  s.id = (static_cast<std::uint64_t>(b.thread) << 40) | b.nextId++;
  s.parent = b.open.empty() ? 0 : b.spans[b.open.back()].id;
  s.thread = b.thread;
  s.startNs = nowNs();
  b.spans.push_back(s);
  b.open.push_back(b.spans.size() - 1);
  return b.spans.size() - 1;
}

void SpanRecorder::end(std::size_t slot) {
  Buffer& b = local();
  b.spans[slot].endNs = nowNs();
  b.open.pop_back();
}

int SpanRecorder::depth() {
  if (tlBuffer == nullptr) return 0;
  return static_cast<int>(static_cast<Buffer*>(tlBuffer.get())->open.size());
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& b : buffers_) b->spans.clear();
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

bool SpanRecorder::writeJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : all) origin = std::min(origin, s.startNs);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"unit\":\"us\",\"spans\":[");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"start\":%.3f,\"end\":%.3f,"
                 "\"id\":%llu,\"parent\":%llu,\"thread\":%u}",
                 i == 0 ? "" : ",", s.name, (s.startNs - origin) / 1e3,
                 (s.endNs - origin) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void LayerCounters::reset() {
  for (auto* a : {&tableDispatchNs, &frontDispatchNs, &sendNs, &awaitNs,
                  &tableFetchNs, &publicEvalNs}) {
    a->store(0);
  }
  for (auto* a : {&tableDispatchCalls, &tableDispatchConfigs,
                  &frontDispatchCalls, &frames, &tableFetchCalls,
                  &tableFetchConfigs, &publicEvalCalls}) {
    a->store(0);
  }
}

LayerCounters& counters() {
  static LayerCounters c;
  return c;
}

rmi::Response TracedEndpoint::dispatch(const rmi::Request& request) {
  LayerCounters& c = counters();
  // A dispatch with no open span on its thread ran on a provider thread
  // behind a front end; in the loopback rig it nests under net.send.
  const bool front = SpanRecorder::depth() == 0;
  const bool table = isTableMethod(request.method);
  std::size_t configs = 0;
  if (request.method == rmi::MethodId::GetDetectionTable) {
    configs = 1;
  } else if (request.method == rmi::MethodId::GetDetectionTables) {
    rmi::Args peek = request.args;
    configs = peek.takeWordVector().size();
  }
  const std::int64_t t0 = nowNs();
  rmi::Response resp;
  {
    ScopedSpan span(table ? "ip.dispatch.table" : "ip.dispatch");
    resp = target_->dispatch(request);
  }
  const std::int64_t dt = nowNs() - t0;
  if (table) {
    c.tableDispatchNs.fetch_add(dt, std::memory_order_relaxed);
    c.tableDispatchCalls.fetch_add(1, std::memory_order_relaxed);
    c.tableDispatchConfigs.fetch_add(configs, std::memory_order_relaxed);
  }
  if (front) {
    c.frontDispatchNs.fetch_add(dt, std::memory_order_relaxed);
    c.frontDispatchCalls.fetch_add(1, std::memory_order_relaxed);
  }
  return resp;
}

ip::PublicPart TracedEndpoint::downloadPublicPart(const std::string& component,
                                                  std::uint64_t param) const {
  const auto* src = dynamic_cast<const ip::PublicPartSource*>(target_);
  return src != nullptr ? src->downloadPublicPart(component, param)
                        : ip::PublicPart{};
}

void TracedTransport::send(const net::RequestFrameHeader& header,
                           const std::vector<std::uint8_t>& sealedPayload) {
  LayerCounters& c = counters();
  const std::int64_t t0 = nowNs();
  {
    ScopedSpan span("net.send");
    inner_->send(header, sealedPayload);
  }
  addSince(c.sendNs, t0);
  c.frames.fetch_add(1, std::memory_order_relaxed);
}

net::TransportReply TracedTransport::awaitReply(std::uint64_t requestId,
                                                double realDeadlineSec) {
  const std::int64_t t0 = nowNs();
  net::TransportReply reply;
  {
    ScopedSpan span("net.await");
    reply = inner_->awaitReply(requestId, realDeadlineSec);
  }
  addSince(counters().awaitNs, t0);
  return reply;
}

fault::DetectionTable TracedFaultClient::detectionTable(
    const vcad::Word& inputs) {
  LayerCounters& c = counters();
  const std::int64_t t0 = nowNs();
  fault::DetectionTable t;
  {
    ScopedSpan span("fault.table_fetch");
    t = inner_->detectionTable(inputs);
  }
  addSince(c.tableFetchNs, t0);
  c.tableFetchCalls.fetch_add(1, std::memory_order_relaxed);
  c.tableFetchConfigs.fetch_add(1, std::memory_order_relaxed);
  return t;
}

std::vector<fault::DetectionTable> TracedFaultClient::detectionTables(
    const std::vector<vcad::Word>& inputs) {
  LayerCounters& c = counters();
  const std::int64_t t0 = nowNs();
  std::vector<fault::DetectionTable> t;
  {
    ScopedSpan span("fault.table_fetch");
    t = inner_->detectionTables(inputs);
  }
  addSince(c.tableFetchNs, t0);
  c.tableFetchCalls.fetch_add(1, std::memory_order_relaxed);
  c.tableFetchConfigs.fetch_add(inputs.size(), std::memory_order_relaxed);
  return t;
}

ip::PublicPart TracedPublicPartSource::downloadPublicPart(
    const std::string& component, std::uint64_t param) const {
  ip::PublicPart part = inner_->downloadPublicPart(component, param);
  if (!part.hasFunctional()) return part;
  part.functional = [fn = std::move(part.functional)](
                        const vcad::Word& in, const rmi::Sandbox& sandbox) {
    LayerCounters& c = counters();
    const std::int64_t t0 = nowNs();
    vcad::Word out;
    {
      ScopedSpan span("gate.public_eval");
      out = fn(in, sandbox);
    }
    addSince(c.publicEvalNs, t0);
    c.publicEvalCalls.fetch_add(1, std::memory_order_relaxed);
    return out;
  };
  return part;
}

}  // namespace vbench
