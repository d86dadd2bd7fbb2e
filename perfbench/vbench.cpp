// vbench: the repository benchmark program. One workload per invocation:
//
//   vbench --workload <campaign-wide|tenant-mix>
//          --seed <n> --seconds <s> --trace <0|1> [--tiny] [--saturate]
//          [--out DIR]
//
// Prints "# "-prefixed diagnostic lines (host-noise probe, output digest,
// deterministic counts, any output-check failure), then one JSON object as
// the last line: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones and writes
// the recorded spans to DIR. --saturate (tenant-mix) offers every request at
// once to read the rig's capacity. Exits 1 when any output check failed.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "net/faulty_transport.hpp"
#include "trace.hpp"
#include "vbench.hpp"

namespace vbench {

bool sameCounts(const std::map<std::string, double>& a,
                const std::map<std::string, double>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, v] : a) {
    const auto it = b.find(name);
    if (it == b.end() ||
        std::fabs(v - it->second) > 1e-9 * std::max(1.0, std::fabs(v))) {
      return false;
    }
  }
  return true;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

void resetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[gnu::noinline]] double referenceLoopMs() {
  const auto t0 = Clock::now();
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  for (std::uint64_t i = 0; i < 20'000'000; ++i) {
    a += b ^ i;
    b += c + i;
    c ^= d + a;
    d += e ^ b;
    e += f + c;
    f ^= a + d;
  }
  volatile std::uint64_t sink = a + b + c + d + e + f;
  (void)sink;
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<int> usableCpus(std::size_t limit) {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < limit; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

void pinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ::pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(vcad::net::fnv1a(bytes_)));
  return buf;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (selftest.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"campaign_s", "s"},
    {"network_sim_s", "s"},    {"round_trips", "count"},
    {"wire_bytes", "B"},       {"fees_cents", "cents"},
    {"peak_rss_mb", "MB"},     {"rpc_p50_ms", "ms"},
    {"achieved_rps", "1/s"},   {"table_build_p50_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"ip.dispatch.table_s", "s"},
    {"ip.dispatch.calls", "count"},
    {"gate.lane_occupancy", "ratio"},
    {"fault.campaign.self_s", "s"},
    {"gate.public_eval_s", "s"},
    {"gate.public_eval.calls", "count"},
    {"fault.injections", "count"},
    {"fault.client_cache.hit_ratio", "ratio"},
    {"core.slots_leased", "count"},
    {"core.scheduler_resets", "count"},
    {"core.peak_schedulers", "count"},
    {"fault.table_fetch.calls", "count"},
    {"fault.table_fetch_s", "s"},
    {"fault.table_fetch.configs_per_call", "count"},
    {"rmi.calls", "count"},
    {"rmi.bytes", "B"},
    {"rmi.retries", "count"},
    {"rmi.overhead_s", "s"},
    {"net.send_s", "s"},
    {"net.await_s", "s"},
    {"net.frames", "count"},
    {"ip.frontend_s", "s"},
    {"ip.queue.peak_depth", "count"},
    {"ip.sheds", "count"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"cache.store.hit_ratio", "ratio"},
    {"cache.store.insertions", "count"},
    {"cache.store.evictions", "count"},
    {"cache.store.bytes", "B"},
    {"trace_overhead_frac", "ratio"},
    {"rpc_p99_ms", "ms"},
    {"bench.rpc_samples", "count"},
    {"host.noise_ms", "ms"},
    {"bench.reference_ms", "ms"},
    {"bench.campaign_wall_s", "s"},
};

/// A fixed single-threaded spin loop; its wall time is the host-noise
/// reading recorded beside every run (median of three).
double hostNoiseMs() {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    sink = x;
    (void)sink;
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return median(ms);
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "vbench: %s\nusage: vbench --workload <campaign-wide|tenant-mix> "
               "--seed N --seconds S --trace 0|1 [--tiny] [--saturate] "
               "[--out DIR]\n",
               why);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
        haveWorkload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        opt.trace = t == "1";
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--saturate") {
        opt.saturate = true;
      } else if (a == "--out") {
        opt.outDir = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace
}  // namespace vbench

int main(int argc, char** argv) {
  using namespace vbench;
  const Options opt = parseArgs(argc, argv);
  const double noiseMs = hostNoiseMs();

  Report report;
  if (opt.workload == "campaign-wide") {
    report = runCampaignWorkload(opt);
  } else if (opt.workload == "tenant-mix") {
    report = runTenantMix(opt);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  report.perLayer["host.noise_ms"] = noiseMs;

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? 1 : 0);
  std::printf("# host_noise_ms=%.3f\n", noiseMs);
  std::printf("# digest=%s\n", report.digest.c_str());
  std::string det = "{";
  for (const auto& [name, v] : report.deterministic) {
    if (det.size() > 1) det += ",";
    det += "\"" + name + "\":" + jsonNumber(v);
  }
  std::printf("# deterministic=%s}\n", det.c_str());
  for (const std::string& n : report.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& p : report.problems) {
    std::printf("# output check failed: %s\n", p.c_str());
  }

  if (opt.trace) {
    const std::string path = opt.outDir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (SpanRecorder::global().writeJson(path)) {
      std::printf("# spans=%s\n", path.c_str());
    } else {
      std::printf("# spans could not be written to %s\n", path.c_str());
    }
  }

  std::string metrics;
  auto emit = [&](const MetricDef& d, double v) {
    std::printf("# %-36s %18.6f %s\n", d.name, v, d.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(d.name) + "\": {\"value\": " +
               jsonNumber(v) + ", \"unit\": \"" + d.unit + "\"}";
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) emit(d, report.perLayer[d.name]);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d, report.endToEnd[d.name]);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
