// tenant-mix: open-loop multi-tenant provider traffic. One process offers a
// seeded schedule at a fixed rate to an in-process
// ip::MultiTenantProviderServer over Unix sockets, one connection per
// tenant. The mix is GetDetectionTable on cone blocks, some configurations
// repeating within a tenant (result-store reads) and the rest fresh (compute
// plus store writes), and buffered EstimatePower batches on the paper's
// 16-bit multiplier. Latency is timed from each request's due time, so a
// stall charges every request queued behind it. Every reply is checked
// against a direct in-process dispatch of the same request.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <semaphore>
#include <thread>

#include "cache/result_store.hpp"
#include "core/rng.hpp"
#include "gate/generators.hpp"
#include "integration/matrix_harness.hpp"
#include "ip/multi_tenant_server.hpp"
#include "ip/remote_component.hpp"
#include "net/faulty_transport.hpp"
#include "net/socket_transport.hpp"
#include "trace.hpp"
#include "vbench.hpp"

namespace vbench {
namespace {

using vcad::Word;
namespace cache = vcad::cache;
namespace matrix = vcad::matrix;

constexpr double kOfferedRps = 200.0;  // stated in BENCHMARK.json
constexpr std::size_t kMaxConnections = 4;
constexpr std::size_t kQueueWorkers = 2;
constexpr std::size_t kInFlight = 8;  // pipelined requests per connection
constexpr int kConeBlocks = 4;
constexpr int kConeGates = 512;
constexpr std::uint64_t kDesignSeed = 7;
constexpr int kMultWidth = 16;
// The traffic model: each tenant simulates kConeBlocks cone blocks and the
// paper's multiplier on one stimulus. Per pattern it asks one detection
// table per block and, with the five-pattern buffer of the paper's Table 2,
// a fifth of an EstimatePower batch. The schedule deals the requests of
// kPowerBatch patterns (one batch and kPowerBatch tables per block) as one
// group in shuffled order, so every seed offers the same mix.
constexpr int kPowerBatch = 5;
// Share of table requests repeating a configuration the tenant asked for
// before: campaign-wide's client-cache hit ratio (20,804 of 22,016 table
// lookups). The tenants keep no client cache, so the provider's result
// store serves what that cache would have.
constexpr double kRepeatShare = 0.945;
// How long before a request is due its sender stops sleeping and spins.
constexpr auto kSpinAhead = std::chrono::microseconds(300);
// Set-up is sampled this many times, spread evenly over the traffic window:
// it is CPU-bound, and a shared host's speed drifts over a run.
constexpr int kSetups = 32;

/// One scheduled request.
struct Call {
  double dueSec = 0.0;  // offset from the window start
  int block = -1;       // -1: EstimatePower on the multiplier
  Word config;          // table request: the block's input configuration
  std::vector<Word> patterns;  // power request: the buffered batch
};

/// The multiplier of the paper's Table 2, with its gate-level power model.
void registerMultiplier(ip::ProviderServer& server) {
  ip::IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ip::ModelLevel::Static;
  spec.power = ip::ModelLevel::Dynamic;
  spec.fees.perPowerPatternCents = 0.1;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        return std::make_shared<const vcad::gate::Netlist>(
            vcad::gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      [](std::uint64_t) { return ip::PublicPart{}; });
}

/// Per-connection schedules for one window: kOfferedRps arrivals per
/// second, each on a uniformly drawn connection; with `saturate`, the same
/// requests all due at the window start.
std::vector<std::vector<Call>> makeSchedule(std::uint64_t seed, double seconds,
                                            std::size_t connections,
                                            const matrix::MatrixDesign& d,
                                            bool saturate) {
  vcad::Rng rng(seed * 0x2545F4914F6CDD1DULL + 0x7e4a);
  std::vector<std::vector<Call>> out(connections);
  // Configurations each connection (tenant) already asked for, per block.
  std::vector<std::vector<std::vector<Word>>> seen(
      connections, std::vector<std::vector<Word>>(kConeBlocks));
  // One arrival at a uniform random point of every 1/kOfferedRps slot: a
  // fixed offered rate and count, with arrivals that never bunch up more
  // than two to a slot.
  const auto count = static_cast<std::size_t>(kOfferedRps * seconds);
  std::vector<int> group;  // block per request of the current group, -1 power
  for (std::size_t k = 0; k < count; ++k) {
    if (group.empty()) {
      group.push_back(-1);
      for (int b = 0; b < kConeBlocks; ++b) {
        group.insert(group.end(), kPowerBatch, b);
      }
      for (std::size_t i = group.size() - 1; i > 0; --i) {
        std::swap(group[i], group[rng.below(i + 1)]);
      }
    }
    const double t = (static_cast<double>(k) + rng.uniform()) / kOfferedRps;
    const std::size_t c = rng.below(connections);
    Call call;
    call.dueSec = saturate ? 0.0 : t;
    call.block = group.back();
    group.pop_back();
    if (call.block < 0) {
      for (int i = 0; i < kPowerBatch; ++i) {
        call.patterns.push_back(Word::fromUint(2 * kMultWidth, rng.next()));
      }
    } else {
      auto& pool = seen[c][static_cast<std::size_t>(call.block)];
      if (!pool.empty() && rng.chance(kRepeatShare)) {
        call.config = pool[rng.below(pool.size())];
      } else {
        call.config = Word::fromUint(
            d.blocks[static_cast<std::size_t>(call.block)]->inputCount(),
            rng.next());
        pool.push_back(call.config);
      }
    }
    out[c].push_back(std::move(call));
  }
  return out;
}

/// Sleeps until shortly before `due`, then spins to it: a thread woken by
/// its timer runs tens of microseconds late, more on a busy host, and that
/// delay is the generator's, not the provider's.
void waitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - kSpinAhead);
  while (Clock::now() < due) {
  }
}

/// What one request produced.
struct Outcome {
  bool ok = false;
  int kind = 0;  // 0 power batch, 1 table from the store, 2 computed table
  double latencyMs = 0.0;  // completion minus due time
  double lagMs = 0.0;      // send start minus due time
  std::uint64_t replyHash = 0;
};

/// One tenant's connection: socket channel, session, and the instances its
/// calls address.
struct Client {
  std::unique_ptr<rmi::RmiChannel> channel;
  std::unique_ptr<ip::ProviderHandle> handle;
  std::vector<rmi::InstanceId> blocks;
  rmi::InstanceId mult = 0;
};

rmi::InstanceId instantiate(ip::ProviderHandle& h, const std::string& name,
                            std::uint64_t param) {
  rmi::Args args;
  args.addU64(param);
  rmi::Response r = h.call(rmi::MethodId::Instantiate, 0, std::move(args), name);
  if (!r.ok()) throw std::runtime_error("Instantiate " + name + ": " + r.error);
  return r.payload.readU64();
}

void openInstances(Client& c) {
  for (int b = 0; b < kConeBlocks; ++b) {
    c.blocks.push_back(instantiate(*c.handle, "BLK" + std::to_string(b), 1));
  }
  c.mult = instantiate(*c.handle, "MultFastLowPower", kMultWidth);
}

rmi::Request requestFor(const Client& c, const Call& call) {
  rmi::Request req;
  req.session = c.handle->session();
  if (call.block < 0) {
    req.method = rmi::MethodId::EstimatePower;
    req.instance = c.mult;
    req.args.addWordVector(call.patterns);
  } else {
    req.method = rmi::MethodId::GetDetectionTable;
    req.instance = c.blocks[static_cast<std::size_t>(call.block)];
    req.args.addWord(call.config);
  }
  return req;
}

/// The serving side plus its tenants' connections. Members are declared so
/// that the clients close before the server stops.
struct Rig {
  std::shared_ptr<cache::ResultStore> store;
  std::unique_ptr<ip::MultiTenantProviderServer> server;
  std::string socketPath;
  std::vector<Client> clients;

  ~Rig() {
    clients.clear();
    if (server != nullptr) server->stop();
    if (!socketPath.empty()) ::unlink(socketPath.c_str());
  }
};

/// Set-up: the tenants' design, the server and its listener, and each
/// tenant's connection, session and instances.
std::unique_ptr<Rig> buildRig(const Options& opt, std::size_t connections,
                              bool traced, int instance) {
  auto rig = std::make_unique<Rig>();
  auto design = std::make_shared<const matrix::MatrixDesign>(
      matrix::makeBigConeDesign(kDesignSeed, kConeBlocks, kConeGates));
  rig->store = cache::ResultStore::inMemory();
  ip::MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = kQueueWorkers;
  cfg.queue.maxQueueDepth = 1024;
  // The shared store is attached here, inside the factory: the server only
  // attaches its own to endpoints it can see are ProviderServers, which a
  // traced shard (a TracedEndpoint) is not.
  auto store = rig->store;
  rig->server = std::make_unique<ip::MultiTenantProviderServer>(
      [design, store, traced](ip::TenantId tenant)
          -> std::unique_ptr<rmi::ServerEndpoint> {
        auto shard =
            std::make_unique<ip::ProviderServer>("bench-tenant-provider.host");
        matrix::registerMatrixCatalog(*shard, *design);
        registerMultiplier(*shard);
        shard->setResultStore(store, tenant);
        if (!traced) return shard;
        return std::make_unique<TracedEndpoint>(std::move(shard));
      },
      cfg);
  rig->socketPath = opt.outDir + "/vbench-" + std::to_string(::getpid()) +
                    "-" + std::to_string(instance) + ".sock";
  if (!rig->server->listenUnix(rig->socketPath)) {
    throw std::runtime_error("cannot listen on " + rig->socketPath);
  }
  rig->server->start();
  for (std::size_t i = 0; i < connections; ++i) {
    std::unique_ptr<net::Transport> wire =
        net::SocketTransport::connectUnix(rig->socketPath);
    if (wire == nullptr) throw std::runtime_error("cannot connect");
    if (traced) wire = std::make_unique<TracedTransport>(std::move(wire));
    Client c;
    c.channel = std::make_unique<rmi::RmiChannel>(
        std::move(wire), net::NetworkProfile::lan(), nullptr,
        matrix::kChannelSeed + opt.seed * 16 + i);
    c.channel->setTenant(static_cast<ip::TenantId>(i + 1));
    c.handle = std::make_unique<ip::ProviderHandle>(*c.channel);
    openInstances(c);
    rig->clients.push_back(std::move(c));
  }
  return rig;
}

/// Everything one traffic window measured.
struct Window {
  std::vector<double> setupSecs;  // every sampled set-up, calibrated
  std::vector<double> setupReferenceMs;  // the reference loop around each
  double wallSec = 0.0;
  double peakRssMb = 0.0;   // peak resident set while the window ran
  std::uint64_t sheds = 0;  // shed replies the channels received
  std::vector<std::vector<Outcome>> outcomes;  // per connection, in order
  std::map<std::string, double> deterministic;
  std::map<std::string, double> layer;
};

Window runWindow(const Options& opt, bool traced, double seconds,
                 const std::vector<std::vector<Call>>& schedule,
                 int samplerCpu, int& rigCount) {
  Window w;
  const std::size_t connections = schedule.size();
  const std::unique_ptr<Rig> rig =
      buildRig(opt, connections, traced, rigCount++);

  std::vector<rmi::ChannelStats> before;
  for (const Client& c : rig->clients) before.push_back(c.channel->stats());
  if (traced) SpanRecorder::global().clear();
  counters().reset();
  resetPeakRss();

  // Open loop: per connection, a sender submits each request at its due
  // time without waiting for earlier replies (the channel pipelines up to
  // kInFlight on its socket), and a collector claims replies in completion
  // order.
  w.outcomes.resize(connections);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < connections; ++i) {
    w.outcomes[i].resize(schedule[i].size());
    rig->clients[i].channel->setMaxInFlight(kInFlight);
  }
  // Per connection: submitted-not-yet-claimed count, request index by call
  // handle (written by the sender), and replies with their completion time
  // (written by the collector). Matched up after the window.
  std::deque<std::counting_semaphore<>> submitted;
  for (std::size_t i = 0; i < connections; ++i) submitted.emplace_back(0);
  std::vector<std::map<std::uint64_t, std::size_t>> indexOf(connections);
  struct Completion {
    std::uint64_t id;
    Clock::time_point at;
    rmi::Response reply;
  };
  std::vector<std::vector<Completion>> completions(connections);
  for (std::size_t i = 0; i < connections; ++i) {
    threads.emplace_back([&, i] {
      Client& c = rig->clients[i];
      for (std::size_t k = 0; k < schedule[i].size(); ++k) {
        const Call& call = schedule[i][k];
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(call.dueSec));
        waitUntil(due);
        w.outcomes[i][k].lagMs =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
        indexOf[i][c.channel->submit(requestFor(c, call)).id] = k;
        submitted[i].release();
      }
    });
    threads.emplace_back([&, i] {
      Client& c = rig->clients[i];
      for (std::size_t k = 0; k < schedule[i].size(); ++k) {
        submitted[i].acquire();
        auto done = c.channel->waitAny();
        const auto at = Clock::now();
        if (!done.has_value()) continue;
        completions[i].push_back({done->first.id, at, std::move(done->second)});
      }
    });
  }
  // Set-up samples: an untraced rig of its own built and torn down at
  // evenly spaced points of the window. The window's offered load is a
  // small fraction of the rig's capacity, so cores are free for it. The
  // heap is trimmed after each teardown: glibc would otherwise keep every
  // sample's freed pages, and peak_rss_mb would count them (about 80 MB
  // against 25 MB). Each set-up is calibrated like a campaign repetition,
  // by the reference loop run just before and just after it on the
  // sampler's CPU.
  std::thread sampler([&] {
    pinTo(samplerCpu);
    for (int i = 0; i < kSetups; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>((i + 0.5) * seconds /
                                                    kSetups)));
      const double before = referenceLoopMs();
      const auto t0 = Clock::now();
      std::unique_ptr<Rig> sample =
          buildRig(opt, connections, false, rigCount++);
      const double setupSec =
          std::chrono::duration<double>(Clock::now() - t0).count();
      sample.reset();
      ::malloc_trim(0);
      const double reference = 0.5 * (before + referenceLoopMs());
      w.setupSecs.push_back(setupSec * kReferenceMs / reference);
      w.setupReferenceMs.push_back(reference);
    }
  });
  for (std::thread& t : threads) t.join();
  w.wallSec = std::chrono::duration<double>(Clock::now() - start).count();
  sampler.join();
  w.peakRssMb = peakRssMb();
  rig->server->waitIdle();
  for (std::size_t i = 0; i < connections; ++i) {
    for (const Completion& done : completions[i]) {
      const std::size_t k = indexOf[i].at(done.id);
      const Call& call = schedule[i][k];
      Outcome& o = w.outcomes[i][k];
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(call.dueSec));
      o.ok = done.reply.ok();
      o.kind = call.block < 0 ? 0 : (done.reply.cached ? 1 : 2);
      o.latencyMs =
          std::chrono::duration<double, std::milli>(done.at - due).count();
      o.replyHash = net::fnv1a(done.reply.payload.bytes());
    }
  }

  rmi::ChannelStats sum;
  for (std::size_t i = 0; i < connections; ++i) {
    const rmi::ChannelStats& a = rig->clients[i].channel->stats();
    sum.calls += a.calls - before[i].calls;
    sum.bytesSent += a.bytesSent - before[i].bytesSent;
    sum.bytesReceived += a.bytesReceived - before[i].bytesReceived;
    sum.feesCents += a.feesCents - before[i].feesCents;
    sum.networkSec += a.networkSec - before[i].networkSec;
    sum.retries += a.retries - before[i].retries;
    sum.shedResponses += a.shedResponses - before[i].shedResponses;
  }
  w.sheds = sum.shedResponses;
  w.deterministic["round_trips"] = static_cast<double>(sum.calls);
  w.deterministic["wire_bytes"] =
      static_cast<double>(sum.bytesSent + sum.bytesReceived);
  w.deterministic["fees_cents"] = sum.feesCents;
  w.deterministic["network_sim_s"] = sum.networkSec;

  if (traced) {
    const LayerCounters& c = counters();
    const cache::TaggedCacheStats st = rig->store->stats();
    const auto stats = rig->server->stats();
    auto sec = [](const std::atomic<std::int64_t>& ns) {
      return static_cast<double>(ns.load()) * 1e-9;
    };
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    std::vector<double> lags;
    for (const auto& conn : w.outcomes) {
      for (const Outcome& o : conn) lags.push_back(o.lagMs);
    }
    auto& m = w.layer;
    m["ip.dispatch.table_s"] = sec(c.tableDispatchNs);
    m["ip.dispatch.calls"] = static_cast<double>(c.tableDispatchCalls);
    m["gate.lane_occupancy"] =
        ratio(static_cast<double>(c.tableDispatchConfigs),
              64.0 * static_cast<double>(c.tableDispatchCalls));
    m["rmi.calls"] = static_cast<double>(sum.calls);
    m["rmi.bytes"] = static_cast<double>(sum.bytesSent + sum.bytesReceived);
    m["rmi.retries"] = static_cast<double>(sum.retries);
    m["net.send_s"] = sec(c.sendNs);
    m["net.await_s"] = sec(c.awaitNs);
    m["net.frames"] = static_cast<double>(c.frames);
    // The client's whole exchange minus the provider's dispatch: framing,
    // socket and queue time on both sides.
    m["ip.frontend_s"] =
        sec(c.sendNs) + sec(c.awaitNs) - sec(c.frontDispatchNs);
    m["ip.queue.peak_depth"] =
        static_cast<double>(rig->server->queueStats().peakDepth);
    m["ip.sheds"] =
        static_cast<double>(stats.shedTooManyPending + stats.shedOverloaded);
    m["bench.gen_lag_p99_ms"] = percentile(lags, 0.99);
    const double lookups =
        static_cast<double>(st.hits + st.backendHits + st.misses);
    m["cache.store.hit_ratio"] =
        ratio(static_cast<double>(st.hits + st.backendHits), lookups);
    m["cache.store.insertions"] = static_cast<double>(st.insertions);
    m["cache.store.evictions"] = static_cast<double>(st.evictions);
    m["cache.store.bytes"] = static_cast<double>(st.bytes);
  }
  return w;
}

/// Expected reply hashes: every distinct request dispatched once on a fresh
/// in-process provider (loopback, ideal network, no store).
std::vector<std::vector<std::uint64_t>> referenceReplies(
    const std::vector<std::vector<Call>>& schedule) {
  const matrix::MatrixDesign design =
      matrix::makeBigConeDesign(kDesignSeed, kConeBlocks, kConeGates);
  ip::ProviderServer server("bench-reference.host");
  matrix::registerMatrixCatalog(server, design);
  registerMultiplier(server);
  rmi::RmiChannel channel(server, net::NetworkProfile::ideal());
  Client c;
  c.handle = std::make_unique<ip::ProviderHandle>(channel);
  openInstances(c);
  std::map<std::string, std::uint64_t> memo;
  std::vector<std::vector<std::uint64_t>> out(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    for (const Call& call : schedule[i]) {
      std::string key = std::to_string(call.block) + ":";
      if (call.block < 0) {
        for (const Word& p : call.patterns) key += p.toString() + ",";
      } else {
        key += call.config.toString();
      }
      auto it = memo.find(key);
      if (it == memo.end()) {
        const rmi::Response r = channel.call(requestFor(c, call));
        it = memo.emplace(key, r.ok() ? net::fnv1a(r.payload.bytes()) : 0)
                 .first;
      }
      out[i].push_back(it->second);
    }
  }
  c.handle.reset();
  return out;
}

}  // namespace

Report runTenantMix(const Options& opt) {
  const std::size_t connections = std::max<std::size_t>(
      1, std::min<std::size_t>(kMaxConnections,
                               std::thread::hardware_concurrency()));
  const double seconds = opt.tiny ? std::min(opt.seconds, 0.5) : opt.seconds;
  const matrix::MatrixDesign design =
      matrix::makeBigConeDesign(kDesignSeed, kConeBlocks, kConeGates);
  const auto schedule =
      makeSchedule(opt.seed, seconds, connections, design, opt.saturate);

  // A traced run serves the same schedule twice, untraced then traced: the
  // first window is trace_overhead_frac's base.
  // The run stays on one CPU, set-up samples on another. Every thread
  // inherits its creator's CPU, so the served rig (server, connections,
  // senders, collectors) shares the first CPU. Each request then passes
  // from thread to thread on one running core. Spread over the cores, it
  // woke a halted vCPU at most hand-offs: on a KVM guest that cost about
  // 0.14 ms more per request in one run of four, seemingly at random.
  const std::vector<int> cpus = usableCpus(2);
  pinTo(cpus.front());
  const int samplerCpu = cpus.back();
  int rigCount = 0;
  std::vector<Window> windows;
  windows.push_back(
      runWindow(opt, false, seconds, schedule, samplerCpu, rigCount));
  if (opt.trace) {
    windows.push_back(
        runWindow(opt, true, seconds, schedule, samplerCpu, rigCount));
  }

  Report out;
  const auto expected = referenceReplies(schedule);
  Digest digest;
  for (const Window& w : windows) {
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < w.outcomes.size(); ++i) {
      for (std::size_t k = 0; k < w.outcomes[i].size(); ++k) {
        const Outcome& o = w.outcomes[i][k];
        ++out.attempted;
        const bool match = o.ok && o.replyHash == expected[i][k];
        if (!match) ++mismatches;
        if (!match) ++out.failed;
      }
    }
    // A shed request is retried by the channel and may still succeed; it
    // counts as failed all the same.
    out.failed += w.sheds;
    if (mismatches != 0) {
      out.fail(std::to_string(mismatches) +
               " replies differ from the in-process dispatch");
    }
    if (!sameCounts(w.deterministic, windows.front().deterministic)) {
      out.fail("deterministic counts differ between windows");
    }
  }
  if (out.failed != 0 && out.correct) {
    out.fail(std::to_string(out.failed) + " requests shed or failed");
  }
  // The replies the server sent, in schedule order (the traced window's in
  // a traced run).
  for (const auto& conn : windows.back().outcomes) {
    for (const Outcome& o : conn) digest.add(o.replyHash);
    digest.add(std::uint64_t{0x5eb});
  }
  out.digest = digest.hex();
  out.deterministic = windows.front().deterministic;

  const Window& w = windows.front();
  std::vector<double> latency;
  for (const auto& conn : w.outcomes) {
    for (const Outcome& o : conn) latency.push_back(o.latencyMs);
  }
  auto& e = out.endToEnd;
  e["setup_s"] = median(w.setupSecs);
  e["campaign_s"] = w.wallSec;
  e["network_sim_s"] = w.deterministic.at("network_sim_s");
  e["round_trips"] = w.deterministic.at("round_trips");
  e["wire_bytes"] = w.deterministic.at("wire_bytes");
  e["fees_cents"] = w.deterministic.at("fees_cents");
  e["peak_rss_mb"] = w.peakRssMb;
  e["rpc_p50_ms"] = percentile(latency, 0.50);
  e["achieved_rps"] = static_cast<double>(latency.size()) / w.wallSec;
  const char* kinds[] = {"power", "stored-table", "computed-table"};
  for (int k = 0; k < 3; ++k) {
    std::vector<double> v;
    for (const auto& conn : w.outcomes) {
      for (const Outcome& o : conn) {
        if (o.kind == k) v.push_back(o.latencyMs);
      }
    }
    if (k == 2) e["table_build_p50_ms"] = percentile(v, 0.5);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: n=%zu p50_ms=%.4f p99_ms=%.4f",
                  kinds[k], v.size(), percentile(v, 0.5),
                  percentile(v, 0.99));
    out.notes.push_back(buf);
  }
  out.notes.push_back(
      "setup_s over " + std::to_string(w.setupSecs.size()) +
      " set-ups: min=" + std::to_string(percentile(w.setupSecs, 0.0)) +
      " max=" + std::to_string(percentile(w.setupSecs, 1.0)) +
      " reference_ms=" + std::to_string(median(w.setupReferenceMs)));
  std::vector<double> lag;
  for (const auto& conn : w.outcomes) {
    for (const Outcome& o : conn) lag.push_back(o.lagMs);
  }
  out.notes.push_back("generator lag: p50_ms=" +
                      std::to_string(percentile(lag, 0.5)) + " p99_ms=" +
                      std::to_string(percentile(lag, 0.99)));
  const double p99 = percentile(latency, 0.99);
  out.notes.push_back("rpc_samples=" + std::to_string(latency.size()) +
                      " rpc_p99_ms=" + std::to_string(p99) +
                      " connections=" + std::to_string(connections) +
                      " offered_rps=" + std::to_string(kOfferedRps));

  if (opt.trace) {
    const Window& t = windows.back();
    out.perLayer = t.layer;
    std::vector<double> traced;
    for (const auto& conn : t.outcomes) {
      for (const Outcome& o : conn) traced.push_back(o.latencyMs);
    }
    out.perLayer["trace_overhead_frac"] =
        percentile(traced, 0.5) / percentile(latency, 0.5) - 1.0;
    out.perLayer["rpc_p99_ms"] = p99;
    out.perLayer["bench.rpc_samples"] = static_cast<double>(latency.size());
    out.perLayer["bench.campaign_wall_s"] = t.wallSec;
    out.perLayer["bench.reference_ms"] = median(t.setupReferenceMs);
  }
  return out;
}

}  // namespace vbench
