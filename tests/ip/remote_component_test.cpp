// The Figure 2 design, end to end: local registers around a remote
// multiplier, in both ER (estimator remote) and MR (fully remote) modes.
#include "ip/remote_component.hpp"

#include <gtest/gtest.h>

#include "core/sim_controller.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "rtl/modules.hpp"

namespace vcad::ip {
namespace {

/// Registers the multiplier; `evals`, when given, counts every evaluation
/// of its public functional model.
void registerMultiplier(ProviderServer& server,
                        std::shared_ptr<std::size_t> evals = nullptr) {
  IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ModelLevel::Static;
  spec.power = ModelLevel::Dynamic;
  spec.timing = ModelLevel::Dynamic;
  spec.area = ModelLevel::Dynamic;
  spec.testability = ModelLevel::Dynamic;
  spec.staticPowerMw = 25.0;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      [evals](std::uint64_t w) {
        PublicPart pub;
        pub.functional = [w, evals](const Word& in, const rmi::Sandbox&) {
          if (evals) ++*evals;
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

/// The Figure 2 circuit: random inputs -> registers -> MULT -> output.
struct Figure2 {
  static constexpr int kWidth = 8;

  LogSink log;
  ProviderServer server{"provider.host.name", &log};
  rmi::RmiChannel channel{server, net::NetworkProfile::ideal(), &log};
  ProviderHandle provider{channel};

  Circuit c{"example"};
  Connector* A;
  Connector* AR;
  Connector* B;
  Connector* BR;
  Connector* O;
  RemoteComponent* mult = nullptr;
  rtl::PrimaryOutput* out = nullptr;

  explicit Figure2(RemoteConfig cfg, std::size_t patterns = 20) {
    registerMultiplier(server);
    A = &c.makeWord(kWidth, "A");
    AR = &c.makeWord(kWidth, "AR");
    B = &c.makeWord(kWidth, "B");
    BR = &c.makeWord(kWidth, "BR");
    O = &c.makeWord(2 * kWidth, "O");
    c.make<rtl::RandomPrimaryInput>("INA", kWidth, *A, patterns, 10, 1);
    c.make<rtl::Register>("REGA", *A, *AR);
    c.make<rtl::RandomPrimaryInput>("INB", kWidth, *B, patterns, 10, 2);
    c.make<rtl::Register>("REGB", *B, *BR);
    mult = &c.make<RemoteComponent>(
        "MULT", provider, "MultFastLowPower", kWidth,
        std::vector<std::pair<std::string, Connector*>>{{"a", AR}, {"b", BR}},
        std::vector<std::pair<std::string, Connector*>>{{"o", O}}, cfg);
    out = &c.make<rtl::PrimaryOutput>("OUT", *O);
  }
};

/// Estimator-remote multipliers on the paper's channel, driven straight
/// from injected primary inputs.
struct MultRig {
  LogSink log;
  ProviderServer server{"provider.host.name", &log};
  rmi::RmiChannel channel{server, net::NetworkProfile::ideal(), &log};
  ProviderHandle provider{channel};
  std::shared_ptr<std::size_t> evals = std::make_shared<std::size_t>(0);
  Circuit c{"rig"};

  MultRig() { registerMultiplier(server, evals); }

  RemoteComponent& mult(const std::string& name, int width, Connector& a,
                        Connector& b, Connector& o) {
    RemoteConfig cfg;
    cfg.collectPower = false;
    return c.make<RemoteComponent>(
        name, provider, "MultFastLowPower", static_cast<std::uint64_t>(width),
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
  }
};

bool anyAllXSample(const std::vector<rtl::PrimaryOutput::Sample>& h) {
  for (const auto& s : h) {
    if (s.value.isAllX()) return true;
  }
  return false;
}

TEST(RemoteComponent, ChainSendsNoAllXWaveDownstream) {
  // UP = A*B feeds DOWN = UP*C. C comes straight from a primary input, so
  // DOWN first evaluates with UP's product still X, one delta cycle before
  // the product arrives. That evaluation must not emit its all-X result.
  MultRig rig;
  auto& A = rig.c.makeWord(2, "A");
  auto& B = rig.c.makeWord(2, "B");
  auto& P = rig.c.makeWord(4, "P");
  auto& C = rig.c.makeWord(4, "C");
  auto& O = rig.c.makeWord(8, "O");
  rig.mult("UP", 2, A, B, P);
  rig.mult("DOWN", 4, P, C, O);
  auto& out = rig.c.make<rtl::PrimaryOutput>("OUT", O);

  SimulationController sim(rig.c);
  sim.inject(A, Word::fromUint(2, 3));
  sim.inject(B, Word::fromUint(2, 2));
  sim.inject(C, Word::fromUint(4, 5));
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  // The public model ran once per block: DOWN's early evaluation saw an X
  // operand and produced all-X without calling it.
  EXPECT_EQ(*rig.evals, 2u);
  const auto& h = out.history(ctx);
  EXPECT_FALSE(anyAllXSample(h));
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].value, Word::fromUint(8, 30));
}

TEST(RemoteComponent, RepeatedKnownOutputIsReEmittedOnEveryEvaluation) {
  // B = 0: every product is 0, yet each evaluation is a transaction that
  // downstream observers count.
  MultRig rig;
  auto& A = rig.c.makeWord(4, "A");
  auto& B = rig.c.makeWord(4, "B");
  auto& O = rig.c.makeWord(8, "O");
  rig.mult("MULT", 4, A, B, O);
  auto& out = rig.c.make<rtl::PrimaryOutput>("OUT", O);

  SimulationController sim(rig.c);
  sim.inject(B, Word::fromUint(4, 0));
  for (std::uint64_t t = 0; t < 4; ++t) {
    sim.inject(A, Word::fromUint(4, t + 1), 5 * t);
  }
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  EXPECT_EQ(*rig.evals, 4u);
  EXPECT_EQ(out.sampleCount(ctx), *rig.evals);
  for (const auto& sample : out.history(ctx)) {
    EXPECT_EQ(sample.value, Word::fromUint(8, 0));
  }
}

TEST(RemoteComponent, AllXAfterAKnownValueStillGoesOut) {
  // The rule compares with what this run last scheduled on the port: after
  // a known product, an X result is a change and must reach the output.
  MultRig rig;
  auto& A = rig.c.makeWord(4, "A");
  auto& B = rig.c.makeWord(4, "B");
  auto& O = rig.c.makeWord(8, "O");
  rig.mult("MULT", 4, A, B, O);
  auto& out = rig.c.make<rtl::PrimaryOutput>("OUT", O);

  SimulationController sim(rig.c);
  sim.inject(A, Word::fromUint(4, 2));
  sim.inject(B, Word::fromUint(4, 3));
  sim.inject(A, Word::allX(4), 5);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  const auto& h = out.history(ctx);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].value, Word::fromUint(8, 6));
  EXPECT_TRUE(h[1].value.isAllX());
  EXPECT_TRUE(
      O.value(sim.scheduler().slot(), sim.scheduler().slotGeneration())
          .isAllX());

  // The next run starts from all-X again: a fresh X result stays silent.
  sim.reset();
  sim.inject(A, Word::allX(4));
  sim.start();
  SimContext fresh{sim.scheduler(), nullptr};
  EXPECT_EQ(out.sampleCount(fresh), 0u);
}

TEST(RemoteComponent, ErModeComputesLocallyAndMatchesProduct) {
  RemoteConfig cfg;
  cfg.mode = RemoteMode::EstimatorRemote;
  cfg.collectPower = false;
  Figure2 f(cfg);
  SimulationController sim(f.c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  // Check every observed product against the register inputs.
  ASSERT_GT(f.out->sampleCount(ctx), 0u);
  // ER mode: no EvalFunction traffic at all (only the instantiate call).
  EXPECT_EQ(f.channel.stats().calls, 2u);  // OpenSession + Instantiate
  EXPECT_EQ(f.mult->remoteErrors(), 0u);
}

TEST(RemoteComponent, MrModeEvaluatesRemotelyWithSameResults) {
  RemoteConfig er;
  er.mode = RemoteMode::EstimatorRemote;
  er.collectPower = false;
  RemoteConfig mr;
  mr.mode = RemoteMode::FullyRemote;
  Figure2 ferr(er), fmr(mr);

  SimulationController simEr(ferr.c), simMr(fmr.c);
  simEr.start();
  simMr.start();
  SimContext ctxEr{simEr.scheduler(), nullptr}, ctxMr{simMr.scheduler(), nullptr};

  const auto& he = ferr.out->history(ctxEr);
  const auto& hm = fmr.out->history(ctxMr);
  ASSERT_EQ(he.size(), hm.size());
  for (size_t i = 0; i < he.size(); ++i) {
    EXPECT_EQ(he[i].value, hm[i].value) << i;
  }
  // MR mode marshals arguments on every event reaching the module.
  EXPECT_GT(fmr.channel.stats().calls, ferr.channel.stats().calls);
  EXPECT_EQ(fmr.mult->remoteErrors(), 0u);
}

TEST(RemoteComponent, BufferedPowerEstimationMatchesServerNetlist) {
  RemoteConfig cfg;
  cfg.mode = RemoteMode::EstimatorRemote;
  cfg.patternBufferCapacity = 5;
  cfg.nonblockingEstimation = false;
  Figure2 f(cfg, 30);
  SimulationController sim(f.c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  const auto power = f.mult->finishPowerEstimation(ctx);
  ASSERT_TRUE(power.has_value());
  EXPECT_GT(*power, 0.0);
  EXPECT_EQ(f.mult->remoteErrors(), 0u);
  // Fees were charged per shipped pattern.
  EXPECT_GT(f.server.sessionFeesCents(f.provider.session()), 0.0);
}

TEST(RemoteComponent, NonblockingEstimationLandsOnOverlapAccount) {
  RemoteConfig cfg;
  cfg.mode = RemoteMode::EstimatorRemote;
  cfg.patternBufferCapacity = 5;
  cfg.nonblockingEstimation = true;
  Figure2 f(cfg, 30);
  SimulationController sim(f.c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  const auto power = f.mult->finishPowerEstimation(ctx);
  ASSERT_TRUE(power.has_value());
  EXPECT_GT(f.channel.stats().asyncCalls, 0u);
}

TEST(RemoteComponent, MrModePowerUsesRemoteHistory) {
  RemoteConfig cfg;
  cfg.mode = RemoteMode::FullyRemote;
  Figure2 f(cfg, 15);
  SimulationController sim(f.c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  const auto power = f.mult->finishPowerEstimation(ctx);
  ASSERT_TRUE(power.has_value());
  EXPECT_GT(*power, 0.0);
}

TEST(RemoteComponent, InstantiationFailureThrows) {
  LogSink log;
  ProviderServer server("p", &log);
  registerMultiplier(server);
  rmi::RmiChannel channel(server, net::NetworkProfile::ideal());
  ProviderHandle provider(channel);
  Circuit c("c");
  auto& a = c.makeWord(32);
  auto& b = c.makeWord(32);
  auto& o = c.makeWord(64);
  EXPECT_THROW(
      c.make<RemoteComponent>(
          "MULT", provider, "MultFastLowPower", 32,  // width out of range
          std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
          std::vector<std::pair<std::string, Connector*>>{{"o", &o}}),
      std::runtime_error);
}

TEST(RemoteComponent, SpecEstimatorsSelectableBySetup) {
  RemoteConfig cfg;
  cfg.collectPower = false;
  Figure2 f(cfg);
  const auto specs = f.provider.catalog();
  ASSERT_EQ(specs.size(), 1u);
  attachSpecEstimators(*f.mult, specs[0], f.mult);

  // Best accuracy -> the remote gate-level estimator.
  SetupController accurate;
  accurate.set(ParamKind::AvgPower, {Criterion::BestAccuracy});
  accurate.apply(f.c);
  EXPECT_EQ(f.mult->boundEstimator(accurate.id(), ParamKind::AvgPower)->name(),
            "gate-level-toggle");

  // Forbidding remote estimators falls back to the published constant.
  SetupController localOnly;
  EstimatorChoice choice{Criterion::BestAccuracy};
  choice.allowRemote = false;
  localOnly.set(ParamKind::AvgPower, choice);
  localOnly.apply(f.c);
  EXPECT_EQ(f.mult->boundEstimator(localOnly.id(), ParamKind::AvgPower)->name(),
            "constant");
}

TEST(RemoteFaultClient, MatchesLocalFaultAnalysis) {
  // A remote IP1 block must serve exactly the fault list and detection
  // tables a local analysis of the same netlist produces.
  LogSink log;
  ProviderServer server("p", &log);
  IpComponentSpec spec;
  spec.name = "IP1";
  spec.minWidth = 1;
  spec.maxWidth = 1;
  spec.functional = ModelLevel::Static;
  spec.testability = ModelLevel::Dynamic;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t) {
        return std::make_shared<const gate::Netlist>(gate::makeIp1HalfAdder());
      },
      [](std::uint64_t) {
        PublicPart pub;
        pub.functional = [](const Word& in, const rmi::Sandbox&) {
          Word out(2);
          out.setBit(0, logicXor(in.bit(0), in.bit(1)));
          out.setBit(1, logicAnd(in.bit(0), in.bit(1)));
          return out;
        };
        return pub;
      });
  rmi::RmiChannel channel(server, net::NetworkProfile::ideal());
  ProviderHandle provider(channel);

  Circuit c("c");
  auto& i1 = c.makeBit();
  auto& i2 = c.makeBit();
  auto& o1 = c.makeBit();
  auto& o2 = c.makeBit();
  auto& comp = c.make<RemoteComponent>(
      "IP1", provider, "IP1", 1,
      std::vector<std::pair<std::string, Connector*>>{{"IIP1", &i1},
                                                      {"IIP2", &i2}},
      std::vector<std::pair<std::string, Connector*>>{{"OIP1", &o1},
                                                      {"OIP2", &o2}});
  RemoteFaultClient remote(comp);

  const auto nl = gate::makeIp1HalfAdder();
  const auto collapsed = fault::collapseAll(nl, true, false, false);
  EXPECT_EQ(remote.faultList(), fault::symbolicFaultList(nl, collapsed));

  gate::NetlistEvaluator eval(nl);
  for (unsigned v = 0; v < 4; ++v) {
    const Word in = Word::fromUint(2, v);
    const auto remoteTable = remote.detectionTable(in);
    const auto localTable = fault::buildDetectionTable(eval, collapsed, in);
    ASSERT_EQ(remoteTable.rows().size(), localTable.rows().size());
    for (size_t r = 0; r < localTable.rows().size(); ++r) {
      EXPECT_EQ(remoteTable.rows()[r].faultyOutput,
                localTable.rows()[r].faultyOutput);
      EXPECT_EQ(remoteTable.rows()[r].faults, localTable.rows()[r].faults);
    }
  }
}

}  // namespace
}  // namespace vcad::ip
