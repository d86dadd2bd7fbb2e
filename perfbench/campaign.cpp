// The campaign-wide workload: a cold two-phase virtual fault campaign on an
// in-process provider behind the loopback transport with the LAN profile,
// repeated for the run's duration, every repetition checked against the
// serial-loopback oracle of the scenario-matrix harness.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "core/rng.hpp"
#include "fault/virtual_sim.hpp"
#include "integration/matrix_harness.hpp"
#include "ip/remote_component.hpp"
#include "net/serialize.hpp"
#include "rmi/loopback_transport.hpp"
#include "trace.hpp"
#include "vbench.hpp"

namespace vbench {
namespace {

using vcad::Connector;
using vcad::Module;
using vcad::Word;
namespace cache = vcad::cache;
namespace matrix = vcad::matrix;

struct Shape {
  int scale = 0;  // the cone family at this scale
  int patterns = 0;
};


Shape shapeFor(const Options& opt) {
  return opt.tiny ? Shape{1, 32} : Shape{20, 512};
}

/// The workload's design is fixed (the matrix bench's design seed); the run
/// seed draws the stimulus, which the harness derives from spec.seed. A
/// per-seed design would make the campaign's size, not just its inputs,
/// vary from seed to seed: on the wide design the fetched-table count
/// ranges over 3x across design seeds.
constexpr std::uint64_t kDesignSeed = 7;

/// The harness's stimulus for a design: the same generator, so the oracle
/// and the measured campaign see identical patterns.
std::vector<Word> designPatterns(int width, int count, std::uint64_t seed) {
  vcad::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xA7817);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) {
    Word w(width);
    for (int bit = 0; bit < width; ++bit) {
      w.setBit(bit, vcad::fromBool(rng.chance(0.5)));
    }
    out.push_back(std::move(w));
  }
  return out;
}

matrix::MatrixDesign makeDesign(const Shape& s, std::uint64_t seed) {
  matrix::MatrixDesign d = matrix::makeMatrixDesign(
      {vcad::gate::CircuitFamily::Cone, s.scale, kDesignSeed});
  d.spec.seed = seed;
  return d;
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Part of the rig in every run: holds the phase-1 fault list fetched during
/// set-up, so the timed campaign is phase 2 alone, and clocks each table
/// fetch as one provider RPC.
class RigFaultClient final : public fault::FaultClient {
 public:
  RigFaultClient(fault::FaultClient& inner, std::vector<double>& rpcMs)
      : inner_(&inner), rpcMs_(&rpcMs), faults_(inner.faultList()) {}

  Module& module() override { return inner_->module(); }
  std::vector<std::string> faultList() override { return faults_; }
  fault::DetectionTable detectionTable(const Word& inputs) override {
    const auto t0 = Clock::now();
    fault::DetectionTable t = inner_->detectionTable(inputs);
    rpcMs_->push_back(secondsSince(t0) * 1e3);
    return t;
  }
  std::vector<fault::DetectionTable> detectionTables(
      const std::vector<Word>& inputs) override {
    const auto t0 = Clock::now();
    auto t = inner_->detectionTables(inputs);
    rpcMs_->push_back(secondsSince(t0) * 1e3);
    return t;
  }
  std::uint64_t versionDigest() const override {
    return inner_->versionDigest();
  }

 private:
  fault::FaultClient* inner_;
  std::vector<double>* rpcMs_;
  std::vector<std::string> faults_;
};

/// One cold campaign rig. Members are declared in dependency order, so
/// destruction tears down the simulator and clients before the modules,
/// the modules before the session handle, and the channel before the
/// provider it dispatches to.
struct Rig {
  matrix::MatrixDesign design;
  std::vector<Word> patterns;
  std::shared_ptr<cache::ResultStore> store;
  std::unique_ptr<ip::ProviderServer> server;
  std::unique_ptr<TracedEndpoint> tracedEndpoint;
  std::unique_ptr<TracedPublicPartSource> tracedParts;
  std::unique_ptr<rmi::RmiChannel> channel;
  std::unique_ptr<ip::ProviderHandle> handle;
  fault::BlockDesign::GenericInstantiation gen;
  std::vector<ip::RemoteComponent*> remotes;
  std::vector<std::unique_ptr<ip::RemoteFaultClient>> remoteClients;
  std::vector<std::unique_ptr<TracedFaultClient>> tracedClients;
  std::vector<std::unique_ptr<RigFaultClient>> clients;
  std::unique_ptr<fault::VirtualFaultSimulator> sim;
};

/// Set-up: design generation, provider registration, the session and its
/// instantiations, and the phase-1 fault list.
std::unique_ptr<Rig> buildRig(const Shape& shape, std::uint64_t seed,
                              bool traced, std::vector<double>& rpcMs) {
  auto rig = std::make_unique<Rig>();
  rig->design = makeDesign(shape, seed);
  rig->patterns =
      designPatterns(rig->design.nPis, shape.patterns, rig->design.spec.seed);
  rig->store = cache::ResultStore::inMemory();
  rig->server = std::make_unique<ip::ProviderServer>("bench-provider.host");
  matrix::registerMatrixCatalog(*rig->server, rig->design);
  rig->server->setResultStore(rig->store, 0);

  rmi::ServerEndpoint* endpoint = rig->server.get();
  const ip::PublicPartSource* parts = rig->server.get();
  if (traced) {
    rig->tracedEndpoint = std::make_unique<TracedEndpoint>(*rig->server);
    rig->tracedParts = std::make_unique<TracedPublicPartSource>(*rig->server);
    endpoint = rig->tracedEndpoint.get();
    parts = rig->tracedParts.get();
  }
  std::unique_ptr<net::Transport> wire =
      std::make_unique<rmi::LoopbackTransport>(*endpoint);
  if (traced) wire = std::make_unique<TracedTransport>(std::move(wire));
  rig->channel = std::make_unique<rmi::RmiChannel>(
      std::move(wire), net::NetworkProfile::lan(), nullptr,
      matrix::kChannelSeed + seed);
  rig->handle = std::make_unique<ip::ProviderHandle>(*rig->channel);

  Rig& r = *rig;
  r.gen = r.design.design.instantiateWith(
      [&r, parts](int b, const std::string& name,
                  std::shared_ptr<const vcad::gate::Netlist>,
                  const std::vector<Connector*>& ins,
                  const std::vector<Connector*>& outs)
          -> std::unique_ptr<Module> {
        std::vector<std::pair<std::string, Connector*>> inPorts, outPorts;
        for (std::size_t i = 0; i < ins.size(); ++i) {
          inPorts.emplace_back("i" + std::to_string(i), ins[i]);
        }
        for (std::size_t i = 0; i < outs.size(); ++i) {
          outPorts.emplace_back("o" + std::to_string(i), outs[i]);
        }
        ip::RemoteConfig cfg;
        cfg.collectPower = false;
        cfg.publicPartSource = parts;
        auto mod = std::make_unique<ip::RemoteComponent>(
            name, *r.handle, "BLK" + std::to_string(b), 1,
            std::move(inPorts), std::move(outPorts), cfg);
        r.remotes.push_back(mod.get());
        return mod;
      });
  std::vector<fault::FaultClient*> comps;
  for (ip::RemoteComponent* m : r.remotes) {
    r.remoteClients.push_back(std::make_unique<ip::RemoteFaultClient>(*m));
    fault::FaultClient* inner = r.remoteClients.back().get();
    if (traced) {
      r.tracedClients.push_back(std::make_unique<TracedFaultClient>(*inner));
      inner = r.tracedClients.back().get();
    }
    r.clients.push_back(std::make_unique<RigFaultClient>(*inner, rpcMs));
    comps.push_back(r.clients.back().get());
  }
  r.sim = std::make_unique<fault::VirtualFaultSimulator>(
      *r.gen.circuit, comps, r.gen.piConns, r.gen.poConns);
  return rig;
}

/// Everything one repetition measured.
struct Rep {
  bool traced = false;
  double setupSec = 0.0;
  double campaignSec = 0.0;
  double peakRssMb = 0.0;  // peak resident set while the repetition ran
  std::size_t rpcs = 0;    // table fetches in phase 2
  double rpcP50Ms = 0.0;   // their latency percentiles
  double rpcP99Ms = 0.0;
  double referenceMs = 0.0;  // the reference loop around the repetition
  bool ok = true;          // matched the oracle
  matrix::CellResult cell;
  std::string digest;
  std::map<std::string, double> deterministic;
  std::map<std::string, double> layer;
};

std::string digestOf(const matrix::CellResult& cell) {
  Digest d;
  const fault::CampaignResult& r = cell.result;
  for (const std::string& f : r.faultList) d.add(f);
  d.add(std::uint64_t{0xfeed});
  for (const std::string& f : r.detected) d.add(f);
  for (std::size_t n : r.detectedAfterPattern) d.add(std::uint64_t{n});
  for (const auto& bytes : cell.tableBytes) {
    d.add(bytes.data(), bytes.size());
    d.add(std::uint64_t{bytes.size()});
  }
  return d.hex();
}

Rep runRep(const Shape& shape, const Options& opt, bool traced) {
  std::vector<double> rpcMs;  // outlives the rig, whose clients fill it
  Rep rep;
  rep.traced = traced;
  if (traced) SpanRecorder::global().clear();
  resetPeakRss();
  const auto setupStart = Clock::now();
  std::unique_ptr<Rig> rig;
  {
    std::unique_ptr<ScopedSpan> span;
    if (traced) span = std::make_unique<ScopedSpan>("bench.setup");
    rig = buildRig(shape, opt.seed, traced, rpcMs);
  }
  rep.setupSec = secondsSince(setupStart);

  const rmi::ChannelStats before = rig->channel->stats();
  const std::size_t rpcsBefore = rpcMs.size();
  counters().reset();
  const auto t0 = Clock::now();
  {
    std::unique_ptr<ScopedSpan> span;
    if (traced) span = std::make_unique<ScopedSpan>("fault.campaign");
    rep.cell.result = rig->sim->runPacked(rig->patterns);
  }
  rep.campaignSec = secondsSince(t0);
  rep.peakRssMb = peakRssMb();
  rep.rpcs = rpcMs.size() - rpcsBefore;
  const std::vector<double> phase2(rpcMs.begin() + rpcsBefore, rpcMs.end());
  rep.rpcP50Ms = percentile(phase2, 0.50);
  rep.rpcP99Ms = percentile(phase2, 0.99);
  const rmi::ChannelStats after = rig->channel->stats();

  rep.deterministic["round_trips"] = static_cast<double>(after.calls);
  rep.deterministic["wire_bytes"] =
      static_cast<double>(after.bytesSent + after.bytesReceived);
  rep.deterministic["fees_cents"] = after.feesCents;
  rep.deterministic["network_sim_s"] = after.networkSec;

  if (traced) {
    const fault::CampaignResult& res = rep.cell.result;
    const LayerCounters& c = counters();
    const cache::TaggedCacheStats st = rig->store->stats();
    auto sec = [](const std::atomic<std::int64_t>& ns) {
      return static_cast<double>(ns.load()) * 1e-9;
    };
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double fetchSec = sec(c.tableFetchNs);
    const double evalSec = sec(c.publicEvalNs);
    auto& m = rep.layer;
    m["ip.dispatch.table_s"] = sec(c.tableDispatchNs);
    m["ip.dispatch.calls"] = static_cast<double>(c.tableDispatchCalls);
    m["gate.lane_occupancy"] =
        ratio(static_cast<double>(c.tableDispatchConfigs),
              64.0 * static_cast<double>(c.tableDispatchCalls));
    m["fault.campaign.self_s"] = rep.campaignSec - fetchSec - evalSec;
    m["gate.public_eval_s"] = evalSec;
    m["gate.public_eval.calls"] = static_cast<double>(c.publicEvalCalls);
    m["fault.injections"] = static_cast<double>(res.injections);
    m["fault.client_cache.hit_ratio"] =
        ratio(static_cast<double>(res.tableCacheHits),
              static_cast<double>(res.tableCacheHits + res.tableStoreHits +
                                  res.detectionTablesRequested));
    m["core.slots_leased"] = static_cast<double>(res.slotsLeased);
    m["core.scheduler_resets"] = static_cast<double>(res.schedulerResets);
    m["core.peak_schedulers"] =
        static_cast<double>(res.peakConcurrentSchedulers);
    m["fault.table_fetch.calls"] = static_cast<double>(c.tableFetchCalls);
    m["fault.table_fetch_s"] = fetchSec;
    m["fault.table_fetch.configs_per_call"] =
        ratio(static_cast<double>(c.tableFetchConfigs),
              static_cast<double>(c.tableFetchCalls));
    m["rmi.calls"] = static_cast<double>(after.calls - before.calls);
    m["rmi.bytes"] = static_cast<double>(
        after.bytesSent + after.bytesReceived - before.bytesSent -
        before.bytesReceived);
    m["rmi.retries"] = static_cast<double>(after.retries - before.retries);
    m["rmi.overhead_s"] = fetchSec - sec(c.tableDispatchNs);
    m["net.send_s"] = sec(c.sendNs);
    m["net.await_s"] = sec(c.awaitNs);
    m["net.frames"] = static_cast<double>(c.frames);
    // The loopback dispatches inside net.send: no front end on this path.
    m["ip.frontend_s"] =
        c.frontDispatchCalls > 0
            ? sec(c.sendNs) + sec(c.awaitNs) - sec(c.frontDispatchNs)
            : 0.0;
    const double lookups =
        static_cast<double>(st.hits + st.backendHits + st.misses);
    m["cache.store.hit_ratio"] =
        ratio(static_cast<double>(st.hits + st.backendHits), lookups);
    m["cache.store.insertions"] = static_cast<double>(st.insertions);
    m["cache.store.evictions"] = static_cast<double>(st.evictions);
    m["cache.store.bytes"] = static_cast<double>(st.bytes);
  }

  // Output check material, outside every timer: one probe table per block
  // for the all-zero configuration, then the ledgers the oracle compares.
  for (std::size_t b = 0; b < rig->remoteClients.size(); ++b) {
    const fault::DetectionTable t = rig->remoteClients[b]->detectionTable(
        Word::fromUint(rig->design.blocks[b]->inputCount(), 0));
    vcad::net::ByteBuffer buf;
    t.serialize(buf);
    rep.cell.tableBytes.push_back(buf.bytes());
  }
  rep.cell.clientFeesCents = rig->channel->stats().feesCents;
  rep.cell.providerFeesCents =
      rig->server->sessionFeesCents(rig->handle->session());
  for (ip::RemoteComponent* m : rig->remotes) {
    rep.cell.remoteErrors += m->remoteErrors();
  }
  rep.digest = digestOf(rep.cell);
  return rep;
}

/// One worker's repetitions, each checked and stripped of its campaign
/// result, plus what the checks found.
struct WorkerResult {
  std::vector<Rep> reps;
  std::vector<std::string> problems;
};

/// Runs repetitions back to back for the run's duration (at least
/// `minReps`), checking each against the oracle as soon as it ends and then
/// dropping its campaign result, so the heap a repetition runs on does not
/// grow over the run. The reference loop runs between repetitions; each
/// repetition keeps the mean of the runs before and after it. A traced run
/// alternates untraced and traced repetitions: the former give
/// trace_overhead_frac's base, the latter the layer split.
WorkerResult runWorker(const Shape& shape, const Options& opt, int minReps,
                       const matrix::CellSpec& spec,
                       const matrix::CellResult& oracle) {
  const std::string oracleDigest = digestOf(oracle);
  WorkerResult w;
  auto fail = [&w](const std::string& why) {
    if (std::find(w.problems.begin(), w.problems.end(), why) ==
        w.problems.end()) {
      w.problems.push_back(why);
    }
  };
  const auto start = Clock::now();
  double referenceBefore = referenceLoopMs();
  while (static_cast<int>(w.reps.size()) < minReps ||
         secondsSince(start) < opt.seconds) {
    const bool traced = opt.trace && w.reps.size() % 2 == 1;
    Rep rep = runRep(shape, opt, traced);
    const double referenceAfter = referenceLoopMs();
    rep.referenceMs = 0.5 * (referenceBefore + referenceAfter);
    referenceBefore = referenceAfter;
    rep.cell.spec = spec;
    rep.ok = rep.digest == oracleDigest;
    for (const std::string& m : matrix::compareToOracle(rep.cell, oracle)) {
      fail(m);
      rep.ok = false;
    }
    if (!w.reps.empty() &&
        !sameCounts(rep.deterministic, w.reps.front().deterministic)) {
      fail("deterministic counts differ between repetitions");
      rep.ok = false;
    }
    rep.cell = {};
    w.reps.push_back(std::move(rep));
    ::malloc_trim(0);
  }
  return w;
}

/// The worker-to-parent record: one line per fact, "end" last.
void writeWorker(std::FILE* f, const WorkerResult& w) {
  for (const Rep& r : w.reps) {
    std::fprintf(f, "rep %d %d %.17g %.17g %.17g %zu %.17g %.17g %.17g %s\n",
                 r.traced ? 1 : 0, r.ok ? 1 : 0, r.setupSec, r.campaignSec,
                 r.peakRssMb, r.rpcs, r.rpcP50Ms, r.rpcP99Ms, r.referenceMs,
                 r.digest.c_str());
    for (const auto& [name, v] : r.deterministic) {
      std::fprintf(f, "det %s %.17g\n", name.c_str(), v);
    }
  }
  for (const std::string& p : w.problems) {
    std::fprintf(f, "problem %s\n", p.c_str());
  }
  std::fputs("end\n", f);
}

/// Parses writeWorker's record; false when it is cut short.
bool readWorker(std::FILE* f, WorkerResult& w) {
  char* line = nullptr;
  std::size_t cap = 0;
  bool ended = false;
  while (::getline(&line, &cap, f) > 0) {
    std::string s(line);
    if (!s.empty() && s.back() == '\n') s.pop_back();
    if (s == "end") {
      ended = true;
      break;
    }
    if (s.rfind("problem ", 0) == 0) {
      w.problems.push_back(s.substr(8));
      continue;
    }
    char name[128];
    double v = 0.0;
    if (std::sscanf(s.c_str(), "det %127s %lf", name, &v) == 2 &&
        !w.reps.empty()) {
      w.reps.back().deterministic[name] = v;
      continue;
    }
    Rep r;
    int traced = 0, ok = 0;
    char digest[64];
    if (std::sscanf(s.c_str(), "rep %d %d %lf %lf %lf %zu %lf %lf %lf %63s",
                    &traced, &ok, &r.setupSec, &r.campaignSec, &r.peakRssMb,
                    &r.rpcs, &r.rpcP50Ms, &r.rpcP99Ms, &r.referenceMs,
                    digest) == 10) {
      r.traced = traced != 0;
      r.ok = ok != 0;
      r.digest = digest;
      w.reps.push_back(std::move(r));
    }
  }
  std::free(line);
  return ended;
}

/// Runs one worker process per CPU, each pinned to its CPU, and collects
/// their records. Every worker is waited for, whatever it returned.
std::vector<WorkerResult> runWorkerProcesses(const std::vector<int>& cpus,
                                             const Shape& shape,
                                             const Options& opt, int minReps,
                                             const matrix::CellSpec& spec,
                                             const matrix::CellResult& oracle) {
  std::vector<WorkerResult> results(cpus.size());
  std::vector<pid_t> pids(cpus.size(), -1);
  std::vector<std::FILE*> pipes(cpus.size(), nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    int fds[2];
    if (::pipe(fds) != 0) break;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      ::close(fds[0]);
      for (std::FILE* f : pipes) {
        if (f != nullptr) std::fclose(f);
      }
      pinTo(cpus[i]);
      std::FILE* f = ::fdopen(fds[1], "w");
      int code = 0;
      try {
        writeWorker(f, runWorker(shape, opt, minReps, spec, oracle));
      } catch (const std::exception& e) {
        std::fprintf(f, "problem worker threw: %s\n", e.what());
        code = 1;
      }
      std::fclose(f);
      ::_exit(code);
    }
    ::close(fds[1]);
    if (pid < 0) {
      ::close(fds[0]);
      break;
    }
    pids[i] = pid;
    pipes[i] = ::fdopen(fds[0], "r");
  }
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    WorkerResult& w = results[i];
    const bool complete = pipes[i] != nullptr && readWorker(pipes[i], w);
    if (pipes[i] != nullptr) std::fclose(pipes[i]);
    int status = 0;
    const bool exited = pids[i] > 0 && ::waitpid(pids[i], &status, 0) == pids[i] &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!complete || !exited) {
      w.problems.push_back("worker " + std::to_string(i) +
                           " ended without a complete result");
    }
  }
  return results;
}

}  // namespace

Report runCampaignWorkload(const Options& opt) {
  const Shape shape = shapeFor(opt);
  // The oracle, before any timer runs: the same design and stimulus through
  // the serial-loopback cell (one provider, ideal network, no chaos, no
  // store).
  matrix::CellSpec spec;
  matrix::CellResult oracle;
  {
    const matrix::MatrixDesign design = makeDesign(shape, opt.seed);
    spec.family = design.spec;
    spec.patternCount = shape.patterns;
    oracle = matrix::runCell(matrix::oracleSpecFor(spec), design);
  }

  // An untraced run repeats the campaign in one process per CPU at once.
  // On a shared host each CPU's speed drifts on its own by a quarter or more
  // over minutes; the median over all CPUs' repetitions averages that out.
  // A traced run stays in this process, where the spans and layer counters
  // are.
  const int minReps = opt.trace ? (opt.tiny ? 2 : 4) : (opt.tiny ? 1 : 3);
  std::vector<WorkerResult> workers;
  if (opt.trace) {
    workers.push_back(runWorker(shape, opt, minReps, spec, oracle));
  } else {
    workers = runWorkerProcesses(usableCpus(kMaxCpus), shape, opt, minReps,
                                 spec, oracle);
  }

  Report out;
  std::vector<const Rep*> reps;
  for (const WorkerResult& w : workers) {
    for (const std::string& p : w.problems) out.fail(p);
    if (w.reps.empty()) {
      ++out.attempted;
      ++out.failed;
    }
    for (const Rep& r : w.reps) reps.push_back(&r);
  }
  out.attempted += reps.size();
  for (const Rep* r : reps) {
    if (!r->ok || !sameCounts(r->deterministic, reps.front()->deterministic)) {
      ++out.failed;
    }
  }
  if (out.failed != 0) {
    out.problems.insert(out.problems.begin(),
                        std::to_string(out.failed) + " of " +
                            std::to_string(out.attempted) +
                            " repetitions failed their output check");
    out.correct = false;
  }
  if (reps.empty()) return out;
  out.digest = reps.front()->digest;
  out.deterministic = reps.front()->deterministic;

  // Times are reported at the reference speed: each repetition's times are
  // scaled by kReferenceMs over the reference loop's time around it.
  std::vector<double> setup, campaign, rps, rss, p50, p99, wall, reference,
      tracedWall;
  std::size_t samples = 0;
  std::string perRep = "repetitions (traced*): campaign_s (wall)";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (workers.size() > 1) perRep += " [cpu" + std::to_string(i) + "]";
    for (const Rep& rep : workers[i].reps) {
      char buf[48];
      std::snprintf(buf, sizeof buf, " %.4f%s", rep.campaignSec,
                    rep.traced ? "*" : "");
      perRep += buf;
      if (rep.traced) {
        tracedWall.push_back(rep.campaignSec);
        continue;
      }
      const double scale = kReferenceMs / rep.referenceMs;
      setup.push_back(rep.setupSec * scale);
      campaign.push_back(rep.campaignSec * scale);
      rss.push_back(rep.peakRssMb);
      rps.push_back(static_cast<double>(rep.rpcs) / (rep.campaignSec * scale));
      p50.push_back(rep.rpcP50Ms * scale);
      p99.push_back(rep.rpcP99Ms * scale);
      wall.push_back(rep.campaignSec);
      reference.push_back(rep.referenceMs);
      samples += rep.rpcs;
    }
  }
  out.notes.push_back(perRep);
  out.notes.push_back("workers=" + std::to_string(workers.size()) +
                      " reference_ms=" + std::to_string(median(reference)) +
                      " campaign_wall_s=" + std::to_string(median(wall)) +
                      " rpc_samples=" + std::to_string(samples) +
                      " rpc_p99_ms=" + std::to_string(median(p99)));
  auto& e = out.endToEnd;
  e["setup_s"] = median(setup);
  e["campaign_s"] = median(campaign);
  e["network_sim_s"] = out.deterministic["network_sim_s"];
  e["round_trips"] = out.deterministic["round_trips"];
  e["wire_bytes"] = out.deterministic["wire_bytes"];
  e["fees_cents"] = out.deterministic["fees_cents"];
  e["peak_rss_mb"] = median(rss);
  e["rpc_p50_ms"] = median(p50);
  // Every repetition starts with a cold provider store and the client cache
  // absorbs repeats, so every fetched table is built by the provider.
  e["table_build_p50_ms"] = e["rpc_p50_ms"];
  e["achieved_rps"] = median(rps);

  if (opt.trace) {
    std::map<std::string, std::vector<double>> layer;
    for (const Rep* rep : reps) {
      for (const auto& [name, v] : rep->layer) layer[name].push_back(v);
    }
    for (const auto& [name, v] : layer) out.perLayer[name] = median(v);
    out.perLayer["trace_overhead_frac"] =
        median(tracedWall) / median(wall) - 1.0;
    out.perLayer["rpc_p99_ms"] = median(p99);
    out.perLayer["bench.rpc_samples"] = static_cast<double>(samples);
    out.perLayer["bench.reference_ms"] = median(reference);
    out.perLayer["bench.campaign_wall_s"] = median(wall);
  }
  return out;
}

}  // namespace vbench
