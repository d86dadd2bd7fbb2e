// Virtual fault-simulation throughput of the phase-2 campaign engine on
// multiplier IP campaigns: wall time, injections/sec and the arena metrics
// (slots leased, peak concurrent schedulers, controller resets), one row
// per campaign at the default batch size 1.
//
// Usage: bench_virtual_sim [--quick] [--json PATH] [--obs PREFIX]
//
// Every row is checked, outside the timed run, against two oracles: the
// same campaign at batch size 64 (identical fault list, detected set,
// coverage curve, table and injection accounting apart from round trips)
// and the flat full-disclosure SerialFaultSimulator (identical detected set
// and coverage curve). Any mismatch exits 1.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "fault/block_design.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"

namespace vcad::bench {
namespace {

std::shared_ptr<const gate::Netlist> share(gate::Netlist nl) {
  return std::make_shared<const gate::Netlist>(std::move(nl));
}

double wallOf(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// A single w-bit array multiplier as a fault-participating IP block; the
/// campaign's fault list is the multiplier's own collapsed list, so early
/// patterns carry hundreds of row injections.
fault::BlockDesign makeMultCampaign(int w) {
  fault::BlockDesign d;
  const int pis = 2 * w;
  for (int i = 0; i < pis; ++i) d.addPrimaryInput("pi" + std::to_string(i));
  const int m = d.addBlock("MULT", share(gate::makeArrayMultiplier(w)));
  for (int i = 0; i < pis; ++i) d.connect({-1, i}, m, i);
  for (int i = 0; i < 2 * w; ++i) d.markPrimaryOutput(m, i);
  return d;
}

std::vector<Word> randomPatterns(int width, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(Word::fromUint(width, rng.next()));
  }
  return out;
}

struct Measurement {
  std::string name;  // campaign scenario
  double wallSec = 0.0;
  std::uint64_t injections = 0;
  bool identical = true;  // matches the batch-64 run and the flat oracle
  std::uint64_t slotsLeased = 0;
  std::uint32_t peakSchedulers = 0;
  std::uint64_t schedulerResets = 0;

  double injectionsPerSec() const {
    return wallSec > 0.0 ? static_cast<double>(injections) / wallSec : 0.0;
  }
};

bool sameCampaign(const fault::CampaignResult& a,
                  const fault::CampaignResult& b) {
  return a.faultList == b.faultList && a.detected == b.detected &&
         a.detectedAfterPattern == b.detectedAfterPattern &&
         a.detectionTablesRequested == b.detectionTablesRequested &&
         a.tableCacheHits == b.tableCacheHits && a.injections == b.injections;
}

/// Times the campaign at batch size 1, then checks it against the batch-64
/// run and the flat oracle.
Measurement measureScenario(const std::string& name, int multBits,
                            int patternCount) {
  const fault::BlockDesign d = makeMultCampaign(multBits);
  auto inst = d.instantiate();
  fault::LocalFaultBlock client(*inst.blockModules[0], /*dominance=*/true,
                                fault::FaultScope{false, true});
  std::vector<fault::FaultClient*> comps{&client};
  const auto pats =
      randomPatterns(d.primaryInputCount(), patternCount, 0xC0FFEE ^ multBits);
  auto campaign = [&](std::size_t batch) {
    fault::VirtualFaultSimulator sim(*inst.circuit, comps, inst.piConns,
                                     inst.poConns);
    sim.setBatchSize(batch);
    return sim.runPacked(pats);
  };

  Measurement m;
  m.name = name;
  fault::CampaignResult res;
  m.wallSec = wallOf([&] { res = campaign(1); });
  m.injections = res.injections;
  m.slotsLeased = res.slotsLeased;
  m.peakSchedulers = res.peakConcurrentSchedulers;
  m.schedulerResets = res.schedulerResets;

  const gate::Netlist flat = d.flatten();
  std::vector<gate::StuckFault> faults;
  for (const std::string& qs : res.faultList) {
    faults.push_back(fault::flatFaultOf(flat, qs));
  }
  fault::SerialFaultSimulator serial(flat, faults, res.faultList);
  const fault::CampaignResult gold = serial.run(pats);
  m.identical = sameCampaign(campaign(64), res) &&
                res.detected == gold.detected &&
                res.detectedAfterPattern == gold.detectedAfterPattern;
  return m;
}

void printTable(const std::vector<Measurement>& rows) {
  std::printf("\n%-18s | %9s | %10s | %11s | %5s | %4s | %6s | %7s\n",
              "campaign", "wall (ms)", "injections", "inj/sec", "ident",
              "peak", "leased", "resets");
  for (int i = 0; i < 90; ++i) std::printf("-");
  std::printf("\n");
  for (const Measurement& m : rows) {
    std::printf("%-18s | %9.1f | %10llu | %11.0f | %5s | %4u | %6llu | "
                "%7llu\n",
                m.name.c_str(), m.wallSec * 1e3,
                static_cast<unsigned long long>(m.injections),
                m.injectionsPerSec(), m.identical ? "YES" : "NO",
                m.peakSchedulers,
                static_cast<unsigned long long>(m.slotsLeased),
                static_cast<unsigned long long>(m.schedulerResets));
  }
}

void writeJson(const std::string& path, const std::vector<Measurement>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    std::fprintf(
        f,
        "  {\"campaign\": \"%s\", \"batch\": 1, \"wall_sec\": %.6f, "
        "\"injections\": %llu, \"injections_per_sec\": %.1f, "
        "\"identical\": %s, \"slots_leased\": %llu, "
        "\"peak_schedulers\": %u, \"scheduler_resets\": %llu}%s\n",
        m.name.c_str(), m.wallSec,
        static_cast<unsigned long long>(m.injections), m.injectionsPerSec(),
        m.identical ? "true" : "false",
        static_cast<unsigned long long>(m.slotsLeased), m.peakSchedulers,
        static_cast<unsigned long long>(m.schedulerResets),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace vcad::bench

int main(int argc, char** argv) {
  using namespace vcad::bench;
  bool quick = false;
  std::string jsonPath;
  std::string obsPrefix;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strcmp(argv[i], "--obs") == 0 && i + 1 < argc) {
      obsPrefix = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json PATH] [--obs PREFIX]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!obsPrefix.empty()) vcad::obs::Tracer::global().setEnabled(true);

  std::printf("Virtual fault simulation: phase-2 campaign engine (%s mode)\n",
              quick ? "quick" : "full");

  // mult8, then the paper-scale campaign: a 16-input array-multiplier IP.
  // Heavy per injection, so quick mode trims the pattern budgets.
  const std::vector<Measurement> rows = {
      measureScenario("campaign/mult8", 4, quick ? 12 : 48),
      measureScenario("campaign/mult16", 8, quick ? 4 : 16)};

  printTable(rows);
  if (!jsonPath.empty()) writeJson(jsonPath, rows);
  if (!obsPrefix.empty()) writeObsArtifacts(obsPrefix);

  int rc = 0;
  for (const Measurement& m : rows) {
    if (!m.identical) {
      std::fprintf(stderr,
                   "FAIL: %s differs from the batch-64 run or the flat "
                   "oracle\n",
                   m.name.c_str());
      rc = 1;
    }
  }
  return rc;
}
