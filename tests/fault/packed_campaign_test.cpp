// Campaign-level golden tests for the packed bit-parallel engine: every
// consumer (serial campaigns, detection-table batches, dictionaries, ATPG,
// the virtual campaign with pack-aligned batches) must produce results
// bit-identical to the scalar reference paths.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/atpg.hpp"
#include "fault/block_design.hpp"
#include "fault/dictionary.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/family.hpp"
#include "gate/generators.hpp"
#include "obs/metrics.hpp"

namespace vcad::fault {
namespace {

using gate::Netlist;

std::vector<Word> randomPatterns(Rng& rng, int width, std::size_t n,
                                 int unknownPct = 0) {
  std::vector<Word> out;
  out.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    Word w(width);
    for (int i = 0; i < width; ++i) {
      if (rng.below(100) < static_cast<std::uint64_t>(unknownPct)) {
        w.setBit(i, rng.below(2) == 0 ? Logic::X : Logic::Z);
      } else {
        w.setBit(i, rng.below(2) == 0 ? Logic::L0 : Logic::L1);
      }
    }
    out.push_back(std::move(w));
  }
  return out;
}

void expectCampaignsIdentical(const CampaignResult& packed,
                              const CampaignResult& scalar,
                              const std::string& label) {
  EXPECT_EQ(packed.faultList, scalar.faultList) << label;
  EXPECT_EQ(packed.detected, scalar.detected) << label;
  EXPECT_EQ(packed.detectedAfterPattern, scalar.detectedAfterPattern) << label;
  EXPECT_EQ(packed.faultSimEvaluations, scalar.faultSimEvaluations) << label;
}

TEST(PackedSerialCampaign, BitIdenticalToScalarOnFixedCircuits) {
  Rng rng(0x5eed01);
  const Netlist circuits[] = {gate::makeHalfAdder(),
                              gate::makeRippleCarryAdder(4),
                              gate::makeArrayMultiplier(3)};
  // Pattern counts straddling the 64-lane block boundary.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 200u}) {
    for (const Netlist& nl : circuits) {
      const auto patterns = randomPatterns(rng, nl.inputCount(), n);
      SerialFaultSimulator sim(nl);
      expectCampaignsIdentical(
          sim.run(patterns), sim.runScalar(patterns),
          "n=" + std::to_string(n) + " inputs=" +
              std::to_string(nl.inputCount()));
    }
  }
}

TEST(PackedSerialCampaign, BitIdenticalOnRandomNetlistsWithUnknowns) {
  Rng rng(0x5eed02);
  for (int trial = 0; trial < 10; ++trial) {
    Rng gen(rng.next());
    const Netlist nl =
        gate::makeRandomNetlist(gen, 3 + static_cast<int>(rng.below(6)),
                                10 + static_cast<int>(rng.below(40)),
                                1 + static_cast<int>(rng.below(3)));
    const auto patterns =
        randomPatterns(rng, nl.inputCount(), 90, trial % 2 == 0 ? 0 : 20);
    SerialFaultSimulator sim(nl, /*dominance=*/trial % 2 == 0);
    expectCampaignsIdentical(sim.run(patterns), sim.runScalar(patterns),
                             "trial=" + std::to_string(trial));
  }
}

std::vector<std::uint8_t> bytesOf(const DetectionTable& t) {
  net::ByteBuffer buf;
  t.serialize(buf);
  return buf.bytes();
}

/// A block of the builder sweep: its fault universe and how often a
/// configuration bit is X or Z.
struct SweepBlock {
  std::string name;
  Netlist nl;
  CollapsedFaults collapsed;
  int unknownPct = 0;
};

/// Provider policy: internal faults only.
CollapsedFaults internalFaults(const Netlist& nl) {
  return collapseAll(nl, true, /*includePrimaryInputs=*/false,
                     /*includePrimaryOutputNets=*/false);
}

/// The 512-gate cone block the tenant-mix benchmark serves:
/// makeBigConeDesign(seed 7, ..., 512)'s block `b` (same generator, same
/// block seed), provider fault policy.
Netlist tenantMixCone(int b) {
  return gate::makeRandomCone(7 * 1000003ULL + static_cast<std::uint64_t>(b),
                              8, 512, 4);
}

TEST(PackedDetectionTables, BatchMatchesScalarBuilderPerConfig) {
  Rng rng(0x5eed03);
  std::vector<SweepBlock> blocks;
  for (int trial = 0; trial < 6; ++trial) {
    Rng gen(rng.next());
    Netlist nl = gate::makeRandomNetlist(
        gen, 4 + static_cast<int>(rng.below(4)), 25, 2);
    // The full universe: PI and PO faults included.
    CollapsedFaults collapsed = collapseAll(nl, trial % 3 != 0);
    blocks.push_back({"random" + std::to_string(trial), std::move(nl),
                      std::move(collapsed), trial % 2 == 0 ? 0 : 30});
  }
  {
    Netlist cone = tenantMixCone(0);
    CollapsedFaults collapsed = internalFaults(cone);
    blocks.push_back({"cone512", std::move(cone), std::move(collapsed), 10});
  }
  {
    Netlist mult4 = gate::makeArrayMultiplier(4);
    CollapsedFaults collapsed = collapseAll(mult4);
    blocks.push_back({"mult4.all", std::move(mult4), std::move(collapsed), 20});
  }
  {
    Netlist mult8 = gate::makeArrayMultiplier(8);
    CollapsedFaults collapsed = internalFaults(mult8);
    blocks.push_back({"mult8", std::move(mult8), std::move(collapsed), 5});
  }
  {
    // An inverter has no internal net: the provider publishes no fault.
    Netlist inv;
    const NetId a = inv.addInput("a");
    inv.markOutput(inv.addGate(gate::GateType::Not, {a}, "y"));
    CollapsedFaults collapsed = internalFaults(inv);
    ASSERT_EQ(collapsed.size(), 0u);
    blocks.push_back({"empty", std::move(inv), std::move(collapsed), 30});
  }

  using Packing = DetectionTableBuilder::Packing;
  const std::size_t kCounts[] = {0, 1, 2, 63, 64, 65, 129};
  for (const SweepBlock& b : blocks) {
    const gate::NetlistEvaluator eval(b.nl);
    const DetectionTableBuilder builder(b.nl, b.collapsed);
    const auto inputs =
        randomPatterns(rng, b.nl.inputCount(), 129, b.unknownPct);
    std::vector<std::vector<std::uint8_t>> scalar;
    for (const Word& in : inputs) {
      scalar.push_back(bytesOf(buildDetectionTable(eval, b.collapsed, in)));
    }
    for (const std::size_t k : kCounts) {
      const std::vector<Word> prefix(inputs.begin(),
                                     inputs.begin() + static_cast<long>(k));
      const std::vector<DetectionTable> runs[] = {
          builder.build(prefix),
          builder.build(prefix, Packing::PatternParallel),
          builder.build(prefix, Packing::FaultParallel)};
      for (int r = 0; r < 3; ++r) {
        ASSERT_EQ(runs[r].size(), k);
        for (std::size_t i = 0; i < k; ++i) {
          ASSERT_EQ(bytesOf(runs[r][i]), scalar[i])
              << b.name << " k=" << k << " run=" << r << " config=" << i;
        }
      }
    }
  }
}

TEST(PackedDetectionTables, LaneCountersRecordPackedLaneUse) {
  const Netlist cone = tenantMixCone(0);
  const CollapsedFaults collapsed = internalFaults(cone);
  ASSERT_EQ(collapsed.size(), 732u);
  const DetectionTableBuilder builder(cone, collapsed);
  Rng rng(0x5eed05);
  const std::vector<Word> one = randomPatterns(rng, 8, 1);
  const std::vector<Word> full = randomPatterns(rng, 8, 64);

  const auto delta = [&](const std::vector<Word>& inputs) {
    const auto before = obs::Registry::global().snapshot();
    builder.build(inputs);
    const auto after = obs::Registry::global().snapshot();
    return std::pair{after.counterOr("fault.table.passes") -
                         before.counterOr("fault.table.passes"),
                     after.counterOr("fault.table.lanes_used") -
                         before.counterOr("fault.table.lanes_used")};
  };
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  // One configuration: fault-parallel, 732 faults in ceil(732/64) passes.
  EXPECT_EQ(delta(one), std::pair(std::uint64_t{12}, std::uint64_t{732}));
  // A full chunk: pattern-parallel, one 64-lane pass per fault.
  EXPECT_EQ(delta(full),
            std::pair(std::uint64_t{732}, std::uint64_t{732 * 64}));
}

TEST(PackedDictionary, BuildMatchesScalarTablePerConfiguration) {
  // 7 inputs = 128 configurations: exercises a full 64-lane block plus a
  // second one.
  Rng gen(0x5eed04);
  const Netlist nl = gate::makeRandomNetlist(gen, 7, 30, 2);
  const gate::NetlistEvaluator eval(nl);
  const CollapsedFaults collapsed =
      collapseAll(nl, true, /*includePrimaryInputs=*/false,
                  /*includePrimaryOutputNets=*/false);
  const FaultDictionary dict = FaultDictionary::build(nl, collapsed);
  ASSERT_EQ(dict.tableCount(), 128u);
  for (std::uint64_t v = 0; v < 128; ++v) {
    const Word in = Word::fromUint(7, v);
    const DetectionTable scalar = buildDetectionTable(eval, collapsed, in);
    const DetectionTable& packed = dict.tableFor(in);
    net::ByteBuffer a, b;
    packed.serialize(a);
    scalar.serialize(b);
    EXPECT_EQ(a.bytes(), b.bytes()) << "config " << v;
  }
}

/// The pre-packed random-ATPG loop, verbatim, as the golden reference.
AtpgResult scalarGenerateTests(const Netlist& netlist,
                               const AtpgOptions& options) {
  const CollapsedFaults collapsed = collapseAll(netlist);
  gate::NetlistEvaluator eval(netlist);
  Rng rng(options.seed);

  AtpgResult res;
  res.faultCount = collapsed.size();
  if (collapsed.representatives.empty()) return res;

  const auto detectsWhich = [&](const std::vector<bool>& detected,
                                const Word& pattern) {
    const Word golden = eval.evalOutputs(pattern);
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < collapsed.representatives.size(); ++i) {
      if (detected[i]) continue;
      if (eval.evalOutputs(pattern, collapsed.representatives[i]) != golden) {
        hits.push_back(i);
      }
    }
    return hits;
  };

  std::vector<bool> detected(collapsed.size(), false);
  std::size_t detectedCount = 0;
  int uselessStreak = 0;
  while (static_cast<int>(res.candidatesTried) < options.maxPatterns &&
         uselessStreak < options.giveUpAfterUseless) {
    const Word candidate = Word::fromUint(netlist.inputCount(), rng.next());
    ++res.candidatesTried;
    const auto hits = detectsWhich(detected, candidate);
    if (hits.empty()) {
      ++uselessStreak;
      continue;
    }
    uselessStreak = 0;
    for (std::size_t i : hits) detected[i] = true;
    detectedCount += hits.size();
    res.patterns.push_back(candidate);
    if (static_cast<double>(detectedCount) >=
        options.targetCoverage * static_cast<double>(collapsed.size())) {
      break;
    }
  }

  res.beforeCompaction = res.patterns.size();
  res.patterns =
      compactTests(netlist, collapsed.representatives, res.patterns);
  std::vector<bool> finalDetected(collapsed.size(), false);
  std::size_t finalCount = 0;
  for (const Word& p : res.patterns) {
    for (std::size_t i : detectsWhich(finalDetected, p)) {
      finalDetected[i] = true;
      ++finalCount;
    }
  }
  res.coverage =
      static_cast<double>(finalCount) / static_cast<double>(collapsed.size());
  return res;
}

TEST(PackedAtpg, GenerateTestsBitIdenticalToScalarLoop) {
  Rng rng(0x5eed05);
  for (int trial = 0; trial < 6; ++trial) {
    Rng gen(rng.next());
    const Netlist nl = gate::makeRandomNetlist(
        gen, 4 + static_cast<int>(rng.below(5)),
        15 + static_cast<int>(rng.below(40)), 2);
    AtpgOptions opt;
    opt.seed = rng.next();
    // Sweep stop conditions across block boundaries: tight candidate
    // budgets, small useless streaks, and coverage targets that trip
    // mid-block.
    opt.maxPatterns = trial % 2 == 0 ? 100 : 1000;
    opt.giveUpAfterUseless = trial % 3 == 0 ? 10 : 100;
    opt.targetCoverage = trial % 2 == 0 ? 0.8 : 1.0;

    const AtpgResult packed = generateTests(nl, opt);
    const AtpgResult scalar = scalarGenerateTests(nl, opt);
    const std::string label = "trial=" + std::to_string(trial);
    EXPECT_EQ(packed.patterns, scalar.patterns) << label;
    EXPECT_EQ(packed.coverage, scalar.coverage) << label;
    EXPECT_EQ(packed.faultCount, scalar.faultCount) << label;
    EXPECT_EQ(packed.candidatesTried, scalar.candidatesTried) << label;
    EXPECT_EQ(packed.beforeCompaction, scalar.beforeCompaction) << label;
  }
}

TEST(PackedAtpg, AdderCoverageStaysHigh) {
  const Netlist nl = gate::makeRippleCarryAdder(4);
  AtpgOptions opt;
  opt.targetCoverage = 1.0;
  const AtpgResult res = generateTests(nl, opt);
  EXPECT_GE(res.coverage, 0.95);
  EXPECT_FALSE(res.patterns.empty());
  EXPECT_LE(res.patterns.size(), res.beforeCompaction);
}

// --- virtual campaign with pack-width-aligned batches ---------------------

std::shared_ptr<const Netlist> share(Netlist nl) {
  return std::make_shared<const Netlist>(std::move(nl));
}

struct Scenario {
  BlockDesign design;
  BlockDesign::Instantiation inst;
  std::vector<std::unique_ptr<LocalFaultBlock>> clients;
  int nPis = 0;

  std::vector<FaultClient*> components() {
    std::vector<FaultClient*> out;
    for (auto& c : clients) out.push_back(c.get());
    return out;
  }
};

Scenario makeScenario(std::uint64_t seed) {
  auto s = Scenario{};
  Rng rng(seed);
  s.nPis = 4 + static_cast<int>(rng.below(3));
  for (int i = 0; i < s.nPis; ++i) {
    s.design.addPrimaryInput("pi" + std::to_string(i));
  }
  std::vector<std::pair<int, int>> sources;
  for (int i = 0; i < s.nPis; ++i) sources.emplace_back(-1, i);

  const int nBlocks = 2 + static_cast<int>(rng.below(3));
  for (int b = 0; b < nBlocks; ++b) {
    const int ins = 2 + static_cast<int>(rng.below(3));
    const int gates = 5 + static_cast<int>(rng.below(10));
    const int outs = 1 + static_cast<int>(rng.below(2));
    Rng blockRng(rng.next());
    const int id = s.design.addBlock(
        "blk" + std::to_string(b),
        share(gate::makeRandomNetlist(blockRng, ins, gates, outs)));
    for (int pin = 0; pin < ins; ++pin) {
      const auto src = sources[rng.below(sources.size())];
      s.design.connect({src.first, src.second}, id, pin);
    }
    for (int pin = 0; pin < outs; ++pin) sources.emplace_back(id, pin);
  }
  for (int b = 0; b < nBlocks; ++b) {
    for (int pin = 0; pin < s.design.blockNetlist(b).outputCount(); ++pin) {
      s.design.markPrimaryOutput(b, pin);
    }
  }
  s.inst = s.design.instantiate();
  for (int b = 0; b < nBlocks; ++b) {
    s.clients.push_back(std::make_unique<LocalFaultBlock>(
        *s.inst.blockModules[static_cast<size_t>(b)], true,
        FaultScope{false, true}));
  }
  return s;
}

// The case name predates the single engine: the sweep is now over batch
// sizes that are whole multiples of the 64-lane pack width.
TEST(PackAlignedBatches, ThreadSweepBitIdenticalToSerialVirtual) {
  Scenario s = makeScenario(0x5eed07);
  Rng rng(0x5eed08);
  const auto patterns = randomPatterns(rng, s.nPis, 80);

  VirtualFaultSimulator serial(*s.inst.circuit, s.components(),
                               s.inst.piConns, s.inst.poConns);
  const CampaignResult gold = serial.runPacked(patterns);

  for (const std::size_t batch : {64u, 128u}) {
    VirtualFaultSimulator sim(*s.inst.circuit, s.components(),
                              s.inst.piConns, s.inst.poConns);
    sim.setBatchSize(batch);  // >= one full lane block per fetch
    const CampaignResult res = sim.runPacked(patterns);
    const std::string label = "batch=" + std::to_string(batch);
    EXPECT_EQ(res.faultList, gold.faultList) << label;
    EXPECT_EQ(res.detected, gold.detected) << label;
    EXPECT_EQ(res.detectedAfterPattern, gold.detectedAfterPattern) << label;
    EXPECT_EQ(res.detectionTablesRequested, gold.detectionTablesRequested)
        << label;
    EXPECT_LT(res.tableFetchRoundTrips, gold.tableFetchRoundTrips) << label;
  }
}

}  // namespace
}  // namespace vcad::fault
