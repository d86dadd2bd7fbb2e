// Tests of the phase-2 campaign engine as one configuration sweep: every
// batch size × result-store state is bit-identical to batch size 1 and to
// the flat full-disclosure serial simulator over property-swept generated
// block designs; batched GetDetectionTables traffic against a real
// provider; and a campaign sharing its channel with concurrent async
// traffic, which must stay clean under -DVCAD_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "engine_sweep.hpp"
#include "fault/block_design.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "ip/provider_server.hpp"
#include "ip/remote_component.hpp"

namespace vcad::fault {
namespace {

using gate::Netlist;

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

/// Same generator as virtual_sim_test: a random multi-block design whose
/// blocks publish internal+output faults.
Scenario makeScenario(std::uint64_t seed, bool dominance) {
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
        *s.inst.blockModules[static_cast<size_t>(b)], dominance,
        FaultScope{false, true}));
  }
  return s;
}

std::vector<Word> packedPatterns(int width, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(Word::fromUint(width, rng.next()));
  }
  return out;
}

sweep::EngineRig rigOf(Scenario& s) {
  return {*s.inst.circuit, s.components(), s.inst.piConns, s.inst.poConns};
}

// The case names of the two swept suites below predate the single engine;
// their axis is now the batch size and the result-store state.

class ParallelVsSerial : public ::testing::TestWithParam<std::tuple<int, bool>> {
};

TEST_P(ParallelVsSerial, IdenticalCoverageAcrossThreadAndBatchSweep) {
  const auto [seed, dominance] = GetParam();
  Scenario s = makeScenario(static_cast<std::uint64_t>(seed) * 104729,
                            dominance);
  const auto patterns =
      packedPatterns(s.nPis, 10, static_cast<std::uint64_t>(seed));
  const std::string label = "seed=" + std::to_string(seed) +
                            " dominance=" + std::to_string(dominance);
  const CampaignResult ref =
      sweep::sweepConfigurations(rigOf(s), patterns, label);
  const CampaignResult flat =
      sweep::flatOracle(s.design, ref.faultList, patterns);
  EXPECT_EQ(ref.detected, flat.detected) << label;
  EXPECT_EQ(ref.detectedAfterPattern, flat.detectedAfterPattern) << label;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelVsSerial,
    ::testing::Combine(::testing::Range(1, 7), ::testing::Bool()));

class PooledInjection : public ::testing::TestWithParam<int> {};

TEST_P(PooledInjection, BitIdenticalToSerialAcrossWorkerCounts) {
  // A long campaign, so batch sizes 64 and 65 split it differently.
  const int seed = GetParam();
  Scenario s = makeScenario(static_cast<std::uint64_t>(seed) * 7919, true);
  const auto patterns =
      packedPatterns(s.nPis, 130, static_cast<std::uint64_t>(seed) + 99);
  const std::string label = "seed=" + std::to_string(seed);
  const CampaignResult ref =
      sweep::sweepConfigurations(rigOf(s), patterns, label);
  EXPECT_GT(ref.injections, 0u) << label;
  const CampaignResult flat =
      sweep::flatOracle(s.design, ref.faultList, patterns);
  EXPECT_EQ(ref.detected, flat.detected) << label;
  EXPECT_EQ(ref.detectedAfterPattern, flat.detectedAfterPattern) << label;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PooledInjection, ::testing::Range(1, 7));

TEST(PooledInjection, SerialPathReportsArenaMetricsToo) {
  Scenario s = makeScenario(31337, true);
  const auto patterns = packedPatterns(s.nPis, 6, 5);
  VirtualFaultSimulator sim(*s.inst.circuit, s.components(), s.inst.piConns,
                            s.inst.poConns);
  EXPECT_EQ(sim.batchSize(), 1u);
  const CampaignResult res = sim.runPacked(patterns);
  // One pinned controller for every fault-free run and injection: a single
  // slot lease, reset-and-reused between runs.
  EXPECT_GT(res.injections, 0u);
  EXPECT_EQ(res.slotsLeased, 1u);
  EXPECT_EQ(res.schedulerResets, res.injections + patterns.size() - 1);
  EXPECT_GT(res.peakConcurrentSchedulers, 0u);
  EXPECT_LE(res.peakConcurrentSchedulers, 4u);
}

TEST(ParallelCampaign, RejectsEmptyConfiguration) {
  Circuit c("c");
  EXPECT_THROW(VirtualFaultSimulator(c, {}, {}, {}), std::invalid_argument);
  Scenario s = makeScenario(918273, true);
  VirtualFaultSimulator sim(*s.inst.circuit, s.components(), s.inst.piConns,
                            s.inst.poConns);
  EXPECT_THROW(sim.setBatchSize(0), std::invalid_argument);
  EXPECT_EQ(sim.batchSize(), 1u);
}

// ---------------------------------------------------------------------------
// Remote half: the campaign against a real provider over an RmiChannel.
// ---------------------------------------------------------------------------

void registerMultiplier(ip::ProviderServer& server) {
  ip::IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ip::ModelLevel::Static;
  spec.power = ip::ModelLevel::Dynamic;
  spec.timing = ip::ModelLevel::Dynamic;
  spec.area = ip::ModelLevel::Dynamic;
  spec.testability = ip::ModelLevel::Dynamic;
  spec.fees.perDetectionTableCents = 0.05;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        return std::make_shared<const Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      [](std::uint64_t w) {
        ip::PublicPart pub;
        pub.functional = [w](const Word& in, const rmi::Sandbox&) {
          const int width = static_cast<int>(w);
          const Word a = in.slice(0, width);
          const Word b = in.slice(width, width);
          if (!a.isFullyKnown() || !b.isFullyKnown()) {
            return Word::allX(2 * width);
          }
          return Word::fromUint(2 * width, a.toUint() * b.toUint());
        };
        return pub;
      });
}

/// A provider, a channel and a circuit holding one remote multiplier IP.
struct RemoteRig {
  static constexpr int kW = 3;

  ip::ProviderServer server;
  rmi::RmiChannel channel;
  ip::ProviderHandle provider;
  Circuit circuit;
  ip::RemoteComponent* mult = nullptr;
  std::unique_ptr<ip::RemoteFaultClient> client;
  std::vector<Connector*> pis;
  std::vector<Connector*> pos;

  explicit RemoteRig(const net::NetworkProfile& profile)
      : server("provider.host", nullptr),
        channel(server, profile),
        provider(channel),
        circuit("remoteFault") {
    registerMultiplier(server);  // before the RemoteComponent instantiates
    auto& a = circuit.makeWord(kW, "a");
    auto& b = circuit.makeWord(kW, "b");
    auto& o = circuit.makeWord(2 * kW, "o");
    ip::RemoteConfig cfg;
    cfg.collectPower = false;
    mult = &circuit.make<ip::RemoteComponent>(
        "MULT", provider, "MultFastLowPower", kW,
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
    client = std::make_unique<ip::RemoteFaultClient>(*mult);
    pis = {&a, &b};
    pos = {&o};
  }

  std::vector<FaultClient*> components() { return {client.get()}; }
};

std::vector<std::vector<Word>> remotePatterns(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Word>> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({Word::fromUint(RemoteRig::kW, rng.next()),
                   Word::fromUint(RemoteRig::kW, rng.next())});
  }
  return out;
}

TEST(ParallelCampaign, RemoteBatchingMatchesSerialWithFewerCalls) {
  const auto patterns = remotePatterns(9, 0xBEEF);

  RemoteRig serialRig(net::NetworkProfile::wan());
  VirtualFaultSimulator serial(serialRig.circuit, serialRig.components(),
                               serialRig.pis, serialRig.pos);
  const auto serialCallsBefore = serialRig.channel.stats().calls;
  const CampaignResult gold = serial.run(patterns);
  const auto serialCalls = serialRig.channel.stats().calls - serialCallsBefore;

  RemoteRig batchRig(net::NetworkProfile::wan());
  VirtualFaultSimulator batched(batchRig.circuit, batchRig.components(),
                                batchRig.pis, batchRig.pos);
  batched.setBatchSize(3);
  const auto batchCallsBefore = batchRig.channel.stats().calls;
  const CampaignResult res = batched.run(patterns);
  const auto batchCalls = batchRig.channel.stats().calls - batchCallsBefore;

  EXPECT_EQ(res.faultList, gold.faultList);
  EXPECT_EQ(res.detected, gold.detected);
  EXPECT_EQ(res.detectedAfterPattern, gold.detectedAfterPattern);
  EXPECT_GT(res.detected.size(), 0u);

  // Same number of tables crosses the wire, but buffered into fewer message
  // pairs — so fewer channel calls and identical provider fees.
  EXPECT_EQ(res.detectionTablesRequested, gold.detectionTablesRequested);
  EXPECT_LT(res.tableFetchRoundTrips, gold.tableFetchRoundTrips);
  EXPECT_LT(batchCalls, serialCalls);
  EXPECT_DOUBLE_EQ(batchRig.channel.stats().feesCents,
                   serialRig.channel.stats().feesCents);
  EXPECT_EQ(batchRig.mult->remoteErrors(), 0u);
}

TEST(ParallelCampaign, ConcurrentCampaignWithAsyncChannelNoise) {
  // Stress for the thread-safety contract: a batched campaign shares its
  // channel with a burst of concurrent callAsync traffic. The channel
  // serializes dispatch, so the run must be clean (TSan-verified under
  // -DVCAD_SANITIZE=thread) and every request must succeed.
  RemoteRig rig(net::NetworkProfile::ideal());
  const auto patterns = remotePatterns(6, 7);

  std::atomic<bool> stop{false};
  std::atomic<int> noiseFailures{0};
  std::thread noise([&] {
    while (!stop.load()) {
      auto fut =
          rig.provider.callAsync(rmi::MethodId::GetCatalog, 0, rmi::Args{});
      if (!fut.get().ok()) ++noiseFailures;
    }
  });

  VirtualFaultSimulator sim(rig.circuit, rig.components(), rig.pis, rig.pos);
  sim.setBatchSize(2);
  const CampaignResult res = sim.run(patterns);
  stop.store(true);
  noise.join();

  EXPECT_GT(res.faultList.size(), 0u);
  EXPECT_GT(res.detected.size(), 0u);
  EXPECT_EQ(noiseFailures.load(), 0);
  EXPECT_EQ(rig.mult->remoteErrors(), 0u);
  EXPECT_EQ(rig.channel.stats().securityRejections, 0u);
}

}  // namespace
}  // namespace vcad::fault
