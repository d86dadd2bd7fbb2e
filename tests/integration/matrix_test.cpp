// Scenario-matrix tests (the tier-1 subset of the bench_matrix sweep):
// a cell from every matrix dimension — family x network x chaos profile,
// multi-provider, warm store, mid-campaign restart — must hold the
// bit-identity contract against its serial-loopback oracle, and the oracles
// themselves must match ground truth (flat serial simulation for the
// combinational families, local shadow machines for the Controller).
// bench/bench_matrix.cpp runs the full reduced matrix; this binary keeps
// the per-dimension representatives in every ctest lane.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/wiring.hpp"
#include "fault/serial_sim.hpp"
#include "gate/netlist_io.hpp"
#include "integration/matrix_harness.hpp"
#include "obs/trace.hpp"

namespace vcad::matrix {
namespace {

using gate::CircuitFamily;
using gate::FamilySpec;

/// Oracles are deterministic per (family point, pattern count): share them
/// across the suite instead of re-running the loopback campaign per cell.
const CellResult& oracleFor(const CellSpec& spec) {
  static std::map<std::string, CellResult> cache;
  const CellSpec o = oracleSpecFor(spec);
  const std::string key = o.family.name() + "#" + std::to_string(o.patternCount);
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, runCell(o)).first;
  return it->second;
}

void expectCellHoldsContract(const CellSpec& spec) {
  SCOPED_TRACE("cell=" + spec.name() +
               " chaosSeed=" + std::to_string(spec.chaosSeed));
  const CellResult cell = runCell(spec);
  const std::vector<std::string> mismatches =
      compareToOracle(cell, oracleFor(spec));
  for (const std::string& m : mismatches) ADD_FAILURE() << m;
  EXPECT_GT(cell.faultCount(), 0u);
  EXPECT_GT(cell.detectedCount(), 0u);
}

// --- one representative per matrix dimension -----------------------------

class MatrixDimension
    : public ::testing::TestWithParam<std::tuple<CircuitFamily, int>> {};

/// Every family x a chaos-profile spread (ideal, drop, lossy) over the LAN
/// model — the family/profile axes of the reduced matrix.
TEST_P(MatrixDimension, ChaosProfileCellMatchesOracle) {
  const auto [family, profileIdx] = GetParam();
  const std::vector<net::FaultProfile> profiles = {
      net::FaultProfile::none(), net::FaultProfile::drop(),
      net::FaultProfile::lossy()};
  CellSpec spec;
  spec.family = {family, 0, 7};
  spec.network = net::NetworkProfile::lan();
  spec.chaos = profiles[static_cast<std::size_t>(profileIdx)];
  spec.chaosSeed = 11;
  spec.patternCount = family == CircuitFamily::Controller ? 12 : 8;
  expectCellHoldsContract(spec);
}

std::string dimensionCellName(
    const ::testing::TestParamInfo<std::tuple<CircuitFamily, int>>& info) {
  static const char* kProfiles[] = {"none", "drop", "lossy"};
  return std::string(gate::familyName(std::get<0>(info.param))) + "_" +
         kProfiles[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Cells, MatrixDimension,
    ::testing::Combine(::testing::Values(CircuitFamily::Cone,
                                         CircuitFamily::Datapath,
                                         CircuitFamily::Controller),
                       ::testing::Range(0, 3)),
    dimensionCellName);

/// The network axis: WAN latency/jitter must shift only simulated time,
/// never a campaign decision or a fee.
TEST(MatrixCells, WanNetworkCellMatchesOracle) {
  CellSpec spec;
  spec.family = {CircuitFamily::Cone, 0, 7};
  spec.network = net::NetworkProfile::wan();
  spec.chaos = net::FaultProfile::reorder();
  spec.chaosSeed = 11;
  expectCellHoldsContract(spec);
}

/// The provider axis: the design's blocks instantiated from three
/// concurrent providers under a lossy transport must compose to the same
/// campaign — and the same summed fees — as the single-provider oracle.
TEST(MatrixCells, ThreeProviderCellMatchesSingleProviderOracle) {
  CellSpec spec;
  spec.family = {CircuitFamily::Cone, 0, 7};
  spec.network = net::NetworkProfile::lan();
  spec.chaos = net::FaultProfile::lossy();
  spec.chaosSeed = 23;
  spec.providers = 3;
  expectCellHoldsContract(spec);
}

/// The store axis: a warm provider-side result store must answer from the
/// store (hits > 0) while changing nothing the campaign or the ledgers see.
TEST(MatrixCells, WarmStoreCellIsBitIdenticalWithStoreHits) {
  CellSpec spec;
  spec.family = {CircuitFamily::Datapath, 0, 7};
  spec.network = net::NetworkProfile::localhost();
  spec.warmStore = true;
  const CellResult cell = runCell(spec);
  const std::vector<std::string> mismatches =
      compareToOracle(cell, oracleFor(spec));
  for (const std::string& m : mismatches) ADD_FAILURE() << m;
  EXPECT_GT(cell.storeHits, 0u);
}

/// The restart axis: a provider crash mid-campaign is recovered via the
/// session manifest; the campaign's decisions and table bytes still match
/// the oracle (fees legitimately include the re-license, so they are
/// excluded — CellSpec::comparesFees documents that).
TEST(MatrixCells, RestartCellRecoversAndMatchesOracle) {
  CellSpec spec;
  spec.family = {CircuitFamily::Cone, 0, 7};
  spec.network = net::NetworkProfile::lan();
  spec.chaos = net::FaultProfile::drop();
  spec.chaosSeed = 31;
  spec.restartAfter = 17;
  const CellResult cell = runCell(spec);
  const std::vector<std::string> mismatches =
      compareToOracle(cell, oracleFor(spec));
  for (const std::string& m : mismatches) ADD_FAILURE() << m;
  EXPECT_EQ(cell.restarts, 1u);
  EXPECT_GE(cell.recoveries, 1u);
  EXPECT_EQ(cell.remoteErrors, 0u);
}

// --- the oracles themselves are checked against ground truth --------------

/// The combinational oracle must agree with full-disclosure flat serial
/// simulation of the same design (the paper's baseline).
TEST(MatrixOracle, CombOracleMatchesFlatSerialTruth) {
  const CellSpec spec = oracleSpecFor([] {
    CellSpec s;
    s.family = {CircuitFamily::Cone, 0, 7};
    return s;
  }());
  const MatrixDesign d = makeMatrixDesign(spec.family);
  const CellResult oracle = runCell(spec, d);

  const gate::Netlist flat = d.design.flatten();
  std::vector<gate::StuckFault> faults;
  for (const std::string& qs : oracle.result.faultList) {
    faults.push_back(fault::flatFaultOf(flat, qs));
  }
  fault::SerialFaultSimulator serial(flat, faults, oracle.result.faultList);
  Rng rng(spec.family.seed * 0x9E3779B97F4A7C15ULL + 0xA7817);
  std::vector<Word> patterns;
  for (int i = 0; i < spec.patternCount; ++i) {
    Word w(d.nPis);
    for (int bit = 0; bit < d.nPis; ++bit) {
      w.setBit(bit, fromBool(rng.chance(0.5)));
    }
    patterns.push_back(std::move(w));
  }
  const fault::CampaignResult truth = serial.run(patterns);
  EXPECT_EQ(oracle.result.detected, truth.detected);
  EXPECT_EQ(oracle.result.detectedAfterPattern, truth.detectedAfterPattern)
      << "oracle diverges from flat truth for " << spec.family.name()
      << "\nnetlist:\n" << gate::netlistToString(flat, spec.family.name());
}

// --- event budget ----------------------------------------------------------

/// The "events" arg of a campaign span (-1 when absent).
double eventsArg(const obs::TraceEvent& e) {
  for (std::size_t i = 0; i < e.argCount; ++i) {
    if (std::string(e.args[i].key) == "events") return e.args[i].value;
  }
  return -1.0;
}

/// Every run of a remote cone campaign dispatches about one event per
/// connector write. Each connector of a run carries one value once its
/// drivers are known, so a run is bounded by the design's structure: one
/// event per primary-input injection, per block-input arrival plus the
/// block's wake-up for it, per block output, per fanout branch and per
/// primary-output latch. All-X waves between blocks, or a forced output
/// driven again on each input event of the faulty block, break the bound.
TEST(MatrixEvents, EveryRunStaysWithinTheStructuralEventBound) {
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  CellSpec spec;
  spec.family = {CircuitFamily::Cone, 2, 7};
  spec.patternCount = 8;
  const MatrixDesign d = makeMatrixDesign(spec.family);

  std::size_t blockInputs = 0;
  std::size_t blockOutputs = 0;
  for (int b = 0; b < d.design.blockCount(); ++b) {
    blockInputs += d.design.blockNetlist(b).inputCount();
    blockOutputs += d.design.blockNetlist(b).outputCount();
  }
  // The backplane realization places the same fanout modules as the
  // campaign's remote one.
  const fault::BlockDesign::Instantiation inst = d.design.instantiate();
  std::size_t branches = 0;
  inst.circuit->visitLeaves([&](Module& m) {
    if (const auto* fan = dynamic_cast<const Fanout*>(&m)) {
      branches += fan->branchCount();
    }
  });
  const double bound = static_cast<double>(
      inst.piConns.size() + 2 * blockInputs + blockOutputs + branches +
      inst.poConns.size());

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.setEnabled(true);
  const CellResult cell = runCell(spec, d);
  tracer.setEnabled(false);
  std::size_t goldenRuns = 0;
  std::uint64_t injections = 0;
  for (const obs::TraceEvent& e : tracer.collect()) {
    const std::string name = e.name;
    if (name == "campaign.golden") {
      // Batch size 1: one fault-free run per span.
      ++goldenRuns;
      EXPECT_GT(eventsArg(e), 0.0);
      EXPECT_LE(eventsArg(e), bound);
    } else if (name == "campaign.pattern") {
      double runs = 0.0;
      for (std::size_t i = 0; i < e.argCount; ++i) {
        if (std::string(e.args[i].key) == "injections") runs = e.args[i].value;
      }
      injections += static_cast<std::uint64_t>(runs);
      EXPECT_GE(eventsArg(e), 0.0);
      EXPECT_LE(eventsArg(e), runs * bound);
    }
  }
  tracer.clear();
  EXPECT_EQ(goldenRuns, static_cast<std::size_t>(spec.patternCount));
  EXPECT_EQ(injections, cell.result.injections);
  EXPECT_GT(injections, 0u);
}

/// The sequential oracle must agree with local shadow machines over the
/// same machine and stimulus.
TEST(MatrixOracle, SeqOracleMatchesLocalShadowTruth) {
  CellSpec spec;
  spec.family = {CircuitFamily::Controller, 0, 7};
  spec.patternCount = 12;
  const MatrixDesign d = makeMatrixDesign(spec.family);
  const CellResult oracle = runCell(oracleSpecFor(spec), d);

  fault::LocalSeqFaultBlock local(*d.machine);
  Rng rng(spec.family.seed * 0x9E3779B97F4A7C15ULL + 0xA7817);
  std::vector<Word> stimulus;
  for (int i = 0; i < spec.patternCount; ++i) {
    Word w(d.machine->inputBits());
    for (int bit = 0; bit < d.machine->inputBits(); ++bit) {
      w.setBit(bit, fromBool(rng.chance(0.5)));
    }
    stimulus.push_back(std::move(w));
  }
  const fault::SeqCampaignResult truth =
      fault::runSeqCampaign(local, stimulus);
  EXPECT_EQ(oracle.seqResult.faultList, truth.faultList);
  EXPECT_EQ(oracle.seqResult.detectedAtCycle, truth.detectedAtCycle);
  EXPECT_EQ(oracle.seqResult.goodSteps, truth.goodSteps);
  EXPECT_EQ(oracle.seqResult.faultySteps, truth.faultySteps);
}

// --- harness plumbing -----------------------------------------------------

TEST(MatrixHarness, CellJsonCarriesTheVerdict) {
  CellSpec spec;
  spec.family = {CircuitFamily::Datapath, 0, 7};
  const CellResult cell = runCell(spec);
  const std::string ok = cellJson(cell, {}, 0.25);
  EXPECT_NE(ok.find("\"pass\":true"), std::string::npos);
  EXPECT_NE(ok.find("\"cell\":\"" + spec.name() + "\""), std::string::npos);
  const std::string bad = cellJson(cell, {"fees differ"}, 0.25);
  EXPECT_NE(bad.find("\"pass\":false"), std::string::npos);
  EXPECT_NE(bad.find("fees differ"), std::string::npos);
}

TEST(MatrixHarness, ReducedMatrixCrossesEveryAxis) {
  const std::vector<CellSpec> cells = reducedMatrix();
  EXPECT_EQ(cells.size(), 3u * 3u * 7u);
  std::set<std::string> names;
  for (const CellSpec& c : cells) names.insert(c.name());
  EXPECT_EQ(names.size(), cells.size()) << "cell names must be unique";
  EXPECT_GE(extraDimensionCells().size(), 7u);
}

TEST(MatrixHarness, SequentialCellsRejectUnsupportedDimensions) {
  CellSpec spec;
  spec.family = {CircuitFamily::Controller, 0, 7};
  spec.restartAfter = 5;
  EXPECT_THROW(runCell(spec), std::invalid_argument);
  spec.restartAfter = 0;
  spec.providers = 2;
  EXPECT_THROW(runCell(spec), std::invalid_argument);
}

}  // namespace
}  // namespace vcad::matrix
