// Packed-vs-scalar evaluation bench: measures the bit-parallel engine's
// throughput (patterns/sec) against the scalar NetlistEvaluator on the
// paper's circuits, plus the end-to-end serial fault-campaign speedup.
//
// A detection-table builder sweep follows: 48-, 512- and 4096-gate cone
// blocks x k configurations per request, timed under each lane packing
// (pattern-parallel, fault-parallel), with the packing the builder selects
// for that request. Every table of both packings is compared byte for byte
// with the scalar buildDetectionTable oracle (on the 4096-gate block, the
// first kScalarChecksBig configurations only: the scalar oracle takes
// seconds per configuration there); any mismatch exits 1. The sweep has no
// speed floor.
//
// Usage:
//   bench_packed_eval [--quick] [--json PATH]
//
// --quick shrinks pattern counts and circuit sizes for CI smoke runs;
// --json writes the measurements as a machine-readable JSON array (the CI
// artifact BENCH_packed_eval.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "fault/detection.hpp"
#include "fault/serial_sim.hpp"
#include "gate/family.hpp"
#include "gate/generators.hpp"
#include "gate/packed_eval.hpp"

namespace vcad::bench {
namespace {

std::vector<Word> randomPatterns(int width, std::size_t count,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(Word::fromUint(width, rng.next()));
  }
  return out;
}

double secondsOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Measurement {
  std::string name;
  std::size_t gates = 0;
  std::size_t patterns = 0;
  double scalarPatternsPerSec = 0.0;
  double packedPatternsPerSec = 0.0;

  double speedup() const {
    return scalarPatternsPerSec > 0.0
               ? packedPatternsPerSec / scalarPatternsPerSec
               : 0.0;
  }
};

/// Raw evaluation throughput: full-netlist passes per second, scalar
/// (evaluateInto with a reused scratch buffer — its best case) vs packed.
Measurement evalThroughput(const std::string& name, const gate::Netlist& nl,
                           std::size_t nPatterns) {
  Measurement m;
  m.name = name;
  m.gates = static_cast<std::size_t>(nl.gateCount());
  m.patterns = nPatterns;
  const auto patterns = randomPatterns(nl.inputCount(), nPatterns, 0xbe1c4);

  const gate::NetlistEvaluator eval(nl);
  std::vector<Logic> scratch;
  int sinkAcc = 0;
  volatile int sink = 0;
  const double scalarSec = secondsOf([&] {
    for (const Word& p : patterns) {
      eval.evaluateInto(p, scratch);
      sinkAcc += static_cast<int>(scratch.back());
    }
  });

  const gate::PackedEvaluator packed(nl);
  std::vector<gate::LanePlanes> planes;
  const double packedSec = secondsOf([&] {
    for (std::size_t base = 0; base < patterns.size();
         base += gate::PackedEvaluator::kLanes) {
      const std::size_t lanes = std::min<std::size_t>(
          gate::PackedEvaluator::kLanes, patterns.size() - base);
      packed.evaluate(packed.pack(patterns, base, lanes), planes);
      sinkAcc += static_cast<int>(planes.back().val);
    }
  });
  sink = sinkAcc;
  (void)sink;

  m.scalarPatternsPerSec = static_cast<double>(nPatterns) / scalarSec;
  m.packedPatternsPerSec = static_cast<double>(nPatterns) / packedSec;
  return m;
}

/// End-to-end serial fault campaign (collapsed faults, fault dropping):
/// packed run() vs the scalar reference runScalar().
Measurement campaignThroughput(const std::string& name,
                               const gate::Netlist& nl,
                               std::size_t nPatterns) {
  Measurement m;
  m.name = name;
  m.gates = static_cast<std::size_t>(nl.gateCount());
  m.patterns = nPatterns;
  const auto patterns = randomPatterns(nl.inputCount(), nPatterns, 0xbe1c5);

  fault::SerialFaultSimulator sim(nl, true);
  std::size_t packedDetected = 0, scalarDetected = 0;
  const double packedSec =
      secondsOf([&] { packedDetected = sim.run(patterns).detected.size(); });
  const double scalarSec = secondsOf(
      [&] { scalarDetected = sim.runScalar(patterns).detected.size(); });
  if (packedDetected != scalarDetected) {
    std::fprintf(stderr, "FATAL: %s packed/scalar campaign disagree\n",
                 name.c_str());
    std::exit(1);
  }
  m.scalarPatternsPerSec = static_cast<double>(nPatterns) / scalarSec;
  m.packedPatternsPerSec = static_cast<double>(nPatterns) / packedSec;
  return m;
}

/// One cell of the table-builder sweep.
struct TableCell {
  std::string name;
  std::size_t gates = 0;
  std::size_t faults = 0;
  std::size_t configs = 0;
  double patternParallelMs = 0.0;
  double faultParallelMs = 0.0;
  const char* selected = "";
  bool identical = true;
};

constexpr std::size_t kScalarChecksBig = 2;

std::vector<std::uint8_t> tableBytes(const fault::DetectionTable& t) {
  net::ByteBuffer buf;
  t.serialize(buf);
  return buf.bytes();
}

const char* packingName(fault::DetectionTableBuilder::Packing p) {
  return p == fault::DetectionTableBuilder::Packing::FaultParallel
             ? "fault-parallel"
             : "pattern-parallel";
}

/// Median wall time (ms) of `reps` builds of `inputs` under `packing`; the
/// last build's tables land in `out`.
double buildMs(const fault::DetectionTableBuilder& builder,
               const std::vector<Word>& inputs,
               fault::DetectionTableBuilder::Packing packing, int reps,
               std::vector<fault::DetectionTable>& out) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    ms.push_back(
        1e3 * secondsOf([&] { out = builder.build(inputs, packing); }));
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Cone block of `gates` gates (the matrix cone shape: 8 inputs, 4
/// outputs) under the provider fault policy, swept over `counts`.
std::vector<TableCell> tableSweep(int gates,
                                  const std::vector<std::size_t>& counts) {
  using Packing = fault::DetectionTableBuilder::Packing;
  const gate::Netlist nl = gate::makeRandomCone(7 * 1000003ULL, 8, gates, 4);
  const fault::CollapsedFaults collapsed =
      fault::collapseAll(nl, true, /*includePrimaryInputs=*/false,
                         /*includePrimaryOutputNets=*/false);
  const fault::DetectionTableBuilder builder(nl, collapsed);
  const gate::NetlistEvaluator eval(nl);
  const std::size_t maxK = *std::max_element(counts.begin(), counts.end());
  const auto inputs = randomPatterns(nl.inputCount(), maxK, 0x7ab1e);
  const std::size_t scalarChecks =
      gates >= 4096 ? std::min(kScalarChecksBig, maxK) : maxK;
  std::vector<std::vector<std::uint8_t>> scalar;
  for (std::size_t i = 0; i < scalarChecks; ++i) {
    scalar.push_back(
        tableBytes(fault::buildDetectionTable(eval, collapsed, inputs[i])));
  }

  std::vector<TableCell> cells;
  for (const std::size_t k : counts) {
    TableCell c;
    c.name = "tables/cone" + std::to_string(gates) + "/k" + std::to_string(k);
    c.gates = static_cast<std::size_t>(nl.gateCount());
    c.faults = collapsed.size();
    c.configs = k;
    c.selected = packingName(fault::DetectionTableBuilder::packingFor(
        std::min<std::size_t>(k, gate::PackedEvaluator::kLanes),
        collapsed.size()));
    const std::vector<Word> request(inputs.begin(),
                                    inputs.begin() + static_cast<long>(k));
    const int reps = gates >= 4096 ? 1 : 3;
    std::vector<fault::DetectionTable> pp, fp;
    c.patternParallelMs =
        buildMs(builder, request, Packing::PatternParallel, reps, pp);
    c.faultParallelMs =
        buildMs(builder, request, Packing::FaultParallel, reps, fp);
    for (std::size_t i = 0; i < k; ++i) {
      const auto ppBytes = tableBytes(pp[i]);
      const bool same = ppBytes == tableBytes(fp[i]) &&
                        (i >= scalar.size() || ppBytes == scalar[i]);
      c.identical = c.identical && same;
    }
    cells.push_back(c);
  }
  return cells;
}

void printTableSweep(const std::vector<TableCell>& cells) {
  std::printf("\n%-22s %6s %6s %4s %12s %12s %-16s %5s\n", "table builder",
              "gates", "faults", "k", "pattern ms", "fault ms", "selected",
              "ident");
  for (const TableCell& c : cells) {
    std::printf("%-22s %6zu %6zu %4zu %12.3f %12.3f %-16s %5s\n",
                c.name.c_str(), c.gates, c.faults, c.configs,
                c.patternParallelMs, c.faultParallelMs, c.selected,
                c.identical ? "YES" : "NO");
  }
}

void printTable(const std::vector<Measurement>& rows) {
  std::printf("\n%-28s %8s %9s %14s %14s %9s\n", "benchmark", "gates",
              "patterns", "scalar pat/s", "packed pat/s", "speedup");
  for (const Measurement& m : rows) {
    std::printf("%-28s %8zu %9zu %14.0f %14.0f %8.1fx\n", m.name.c_str(),
                m.gates, m.patterns, m.scalarPatternsPerSec,
                m.packedPatternsPerSec, m.speedup());
  }
}

void writeJson(const std::string& path, const std::vector<Measurement>& rows,
               const std::vector<TableCell>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"gates\": %zu, \"patterns\": %zu, "
                 "\"scalar_patterns_per_sec\": %.1f, "
                 "\"packed_patterns_per_sec\": %.1f, \"speedup\": %.2f}%s\n",
                 m.name.c_str(), m.gates, m.patterns, m.scalarPatternsPerSec,
                 m.packedPatternsPerSec, m.speedup(),
                 i + 1 < rows.size() || !cells.empty() ? "," : "");
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TableCell& c = cells[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"gates\": %zu, \"faults\": %zu, "
                 "\"configs\": %zu, \"pattern_parallel_ms\": %.4f, "
                 "\"fault_parallel_ms\": %.4f, \"selected\": \"%s\", "
                 "\"identical\": %s}%s\n",
                 c.name.c_str(), c.gates, c.faults, c.configs,
                 c.patternParallelMs, c.faultParallelMs, c.selected,
                 c.identical ? "true" : "false",
                 i + 1 < cells.size() ? "," : "");
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

  const std::size_t evalPatterns = quick ? 64 * 32 : 64 * 512;
  std::vector<Measurement> rows;
  std::printf("Packed bit-parallel evaluation vs scalar (%s mode)\n",
              quick ? "quick" : "full");

  rows.push_back(evalThroughput("eval/adder16",
                                vcad::gate::makeRippleCarryAdder(16),
                                evalPatterns));
  rows.push_back(evalThroughput("eval/mult8", vcad::gate::makeArrayMultiplier(8),
                                evalPatterns));
  rows.push_back(evalThroughput("eval/mult16",
                                vcad::gate::makeArrayMultiplier(16),
                                quick ? 64 * 8 : evalPatterns));

  rows.push_back(campaignThroughput("campaign/mult4",
                                    vcad::gate::makeArrayMultiplier(4),
                                    quick ? 64 : 256));
  if (!quick) {
    rows.push_back(campaignThroughput(
        "campaign/mult6", vcad::gate::makeArrayMultiplier(6), 256));
  }

  printTable(rows);

  const std::vector<std::size_t> counts = {1, 4, 16, 64};
  std::vector<TableCell> cells;
  for (const int gates : {48, 512, 4096}) {
    for (TableCell& c : tableSweep(gates, counts)) cells.push_back(c);
  }
  printTableSweep(cells);

  if (!jsonPath.empty()) writeJson(jsonPath, rows, cells);
  if (!obsPrefix.empty()) writeObsArtifacts(obsPrefix);

  for (const TableCell& c : cells) {
    if (!c.identical) {
      std::fprintf(stderr, "FAIL: %s tables differ between packings or from "
                   "the scalar builder\n", c.name.c_str());
      return 1;
    }
  }

  // Acceptance gate: the packed engine must be >= 10x scalar on the paper's
  // 16-bit multiplier (raw evaluation throughput).
  for (const Measurement& m : rows) {
    if (m.name == "eval/mult16" && m.speedup() < 10.0) {
      std::fprintf(stderr, "FAIL: eval/mult16 speedup %.1fx < 10x\n",
                   m.speedup());
      return 1;
    }
  }
  return 0;
}
