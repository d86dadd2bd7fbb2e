#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/connector.hpp"
#include "core/module.hpp"

namespace vcad {
namespace {

// Records every received value with its delivery time.
class Probe : public Module {
 public:
  Probe(std::string name, Connector& in) : Module(std::move(name)) {
    in_ = &addInput("in", in);
  }

  void processInputEvent(const SignalToken& token, SimContext& ctx) override {
    received.emplace_back(ctx.scheduler.now(), token.value());
  }

  std::vector<std::pair<SimTime, Word>> received;

 private:
  Port* in_;
};

// Emits a fixed value after a delay when initialized.
class Pulser : public Module {
 public:
  Pulser(std::string name, Connector& out, Word value, SimTime delay)
      : Module(std::move(name)), value_(std::move(value)), delay_(delay) {
    out_ = &addOutput("out", out);
  }

  void initialize(SimContext& ctx) override { selfSchedule(ctx, delay_); }

  void processSelfEvent(const SelfToken&, SimContext& ctx) override {
    emit(ctx, *out_, value_);
  }

 private:
  Port* out_;
  Word value_;
  SimTime delay_;
};

TEST(Scheduler, UniqueIds) {
  Scheduler a, b;
  EXPECT_NE(a.id(), b.id());
}

TEST(Scheduler, SelfScheduledPulserDrivesProbe) {
  WordConnector c(8);
  Pulser pulser("pulse", c, Word::fromUint(8, 7), 3);
  Probe probe("p", c);
  Scheduler s;
  SimContext ctx{s, nullptr};
  pulser.initialize(ctx);
  s.run();
  ASSERT_EQ(probe.received.size(), 1u);
  EXPECT_EQ(probe.received[0].first, 3u);
  EXPECT_EQ(probe.received[0].second.toUint(), 7u);
}

TEST(Scheduler, DeliversInTimeThenFifoOrder) {
  WordConnector c1(8), c2(8);
  Probe p1("p1", c1);
  Probe p2("p2", c2);
  Scheduler s;
  // Schedule out of order: t=5 first, then t=2, then another t=5.
  s.schedule(std::make_unique<SignalToken>(*c1.endpoints()[0],
                                           Word::fromUint(8, 50)),
             5);
  s.schedule(std::make_unique<SignalToken>(*c2.endpoints()[0],
                                           Word::fromUint(8, 20)),
             2);
  s.schedule(std::make_unique<SignalToken>(*c1.endpoints()[0],
                                           Word::fromUint(8, 51)),
             5);
  s.run();
  ASSERT_EQ(p2.received.size(), 1u);
  EXPECT_EQ(p2.received[0].first, 2u);
  ASSERT_EQ(p1.received.size(), 2u);
  EXPECT_EQ(p1.received[0].second.toUint(), 50u);  // FIFO within t=5
  EXPECT_EQ(p1.received[1].second.toUint(), 51u);
  EXPECT_EQ(s.now(), 5u);
  EXPECT_EQ(s.dispatched(), 3u);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  WordConnector c(8);
  Probe p("p", c);
  Scheduler s;
  Port& in = *c.endpoints()[0];
  s.schedule(std::make_unique<SignalToken>(in, Word::fromUint(8, 1)), 1);
  s.schedule(std::make_unique<SignalToken>(in, Word::fromUint(8, 2)), 10);
  s.runUntil(5);
  EXPECT_EQ(p.received.size(), 1u);
  EXPECT_FALSE(s.empty());
  s.run();
  EXPECT_EQ(p.received.size(), 2u);
}

TEST(Scheduler, SignalDeliveryUpdatesConnectorValue) {
  WordConnector c(8);
  Probe p("p", c);
  Scheduler s;
  s.schedule(
      std::make_unique<SignalToken>(*c.endpoints()[0], Word::fromUint(8, 42)));
  s.run();
  EXPECT_EQ(c.value(s.id()).toUint(), 42u);
}

TEST(Scheduler, EventLimitGuard) {
  // A module that reschedules itself forever trips the runaway guard.
  class Oscillator : public Module {
   public:
    using Module::Module;
    void initialize(SimContext& ctx) override { selfSchedule(ctx, 1); }
    void processSelfEvent(const SelfToken&, SimContext& ctx) override {
      selfSchedule(ctx, 1);
    }
  };
  Oscillator osc("osc");
  Scheduler s;
  SimContext ctx{s, nullptr};
  osc.initialize(ctx);
  EXPECT_THROW(s.run(1000), std::runtime_error);
}

TEST(Scheduler, EventLimitIsExact) {
  // Regression for an off-by-one: the old guard fired only after
  // maxEvents + 1 events had already been dispatched. The limit must be
  // exact — the (maxEvents+1)-th event throws BEFORE it is delivered.
  class Oscillator : public Module {
   public:
    using Module::Module;
    void initialize(SimContext& ctx) override { selfSchedule(ctx, 1); }
    void processSelfEvent(const SelfToken&, SimContext& ctx) override {
      selfSchedule(ctx, 1);
    }
  };
  Oscillator osc("osc");
  Scheduler s;
  SimContext ctx{s, nullptr};
  osc.initialize(ctx);
  EXPECT_THROW(s.run(5), std::runtime_error);
  EXPECT_EQ(s.dispatched(), 5u);

  Scheduler s2;
  SimContext ctx2{s2, nullptr};
  osc.initialize(ctx2);
  EXPECT_THROW(s2.runUntil(1000, 5), std::runtime_error);
  EXPECT_EQ(s2.dispatched(), 5u);
}

TEST(Scheduler, EventLimitAllowsExactlyMaxEvents) {
  // A finite run of exactly maxEvents events must complete without
  // tripping the guard.
  WordConnector c(8);
  Probe p("p", c);
  Scheduler s;
  for (int i = 0; i < 3; ++i) {
    s.schedule(std::make_unique<SignalToken>(*c.endpoints()[0],
                                             Word::fromUint(8, 1)),
               static_cast<SimTime>(i));
  }
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(p.received.size(), 3u);

  Scheduler s2;
  for (int i = 0; i < 3; ++i) {
    s2.schedule(std::make_unique<SignalToken>(*c.endpoints()[0],
                                              Word::fromUint(8, 1)),
                static_cast<SimTime>(i));
  }
  EXPECT_THROW(s2.run(2), std::runtime_error);
  EXPECT_EQ(s2.dispatched(), 2u);
}

TEST(Scheduler, NullTokenRejected) {
  Scheduler s;
  EXPECT_THROW(s.schedule(nullptr), std::invalid_argument);
}

TEST(Scheduler, OutputOverrideReplacesEventHandling) {
  // in -> NOT-like module -> out; override forces the output to 1 no matter
  // what the module would compute.
  class Inverter : public Module {
   public:
    Inverter(std::string name, Connector& in, Connector& out)
        : Module(std::move(name)) {
      in_ = &addInput("in", in);
      out_ = &addOutput("out", out);
    }
    void processInputEvent(const SignalToken& t, SimContext& ctx) override {
      Word w(1);
      w.setBit(0, logicNot(t.value().bit(0)));
      emit(ctx, *out_, w);
    }
    Port* in_;
    Port* out_;
  };

  BitConnector cin, cout;
  Inverter inv("inv", cin, cout);
  Probe probe("probe", cout);
  Scheduler s;
  s.setOutputOverride(inv, {{inv.out_, Word::fromLogic(Logic::L1)}});
  s.schedule(
      std::make_unique<SignalToken>(*inv.in_, Word::fromLogic(Logic::L1)));
  s.run();
  ASSERT_EQ(probe.received.size(), 1u);
  // Normal inversion would give 0; the override forced 1.
  EXPECT_EQ(probe.received[0].second.scalar(), Logic::L1);

  s.clearOutputOverride(inv);
  s.schedule(
      std::make_unique<SignalToken>(*inv.in_, Word::fromLogic(Logic::L1)));
  s.run();
  ASSERT_EQ(probe.received.size(), 2u);
  EXPECT_EQ(probe.received[1].second.scalar(), Logic::L0);
}

TEST(Scheduler, OutputOverrideDrivesItsForcedOutputsOncePerArming) {
  // Three inputs; the module's own handling forwards each arriving value.
  class Merge3 : public Module {
   public:
    Merge3(std::string name, Connector& a, Connector& b, Connector& c,
           Connector& out)
        : Module(std::move(name)) {
      in_[0] = &addInput("a", a);
      in_[1] = &addInput("b", b);
      in_[2] = &addInput("c", c);
      out_ = &addOutput("out", out);
    }
    void processInputEvent(const SignalToken& t, SimContext& ctx) override {
      emit(ctx, *out_, t.value());
    }
    Port* in_[3];
    Port* out_;
  };

  BitConnector a, b, c, cout;
  Merge3 m("m", a, b, c, cout);
  Probe probe("probe", cout);
  Scheduler s;
  const Word one = Word::fromLogic(Logic::L1);
  const Word zero = Word::fromLogic(Logic::L0);
  auto driveAllInputs = [&] {
    for (std::size_t i = 0; i < 3; ++i) {
      s.schedule(std::make_unique<SignalToken>(*m.in_[i], one),
                 static_cast<SimTime>(i));
    }
    s.run();
  };

  // Three input events, one forced event downstream.
  s.setOutputOverride(m, {{m.out_, zero}});
  driveAllInputs();
  ASSERT_EQ(probe.received.size(), 1u);
  EXPECT_EQ(probe.received[0].first, 0u);
  EXPECT_EQ(probe.received[0].second, zero);

  // Fired: later input events are absorbed until the override is re-armed.
  driveAllInputs();
  EXPECT_EQ(probe.received.size(), 1u);
  s.setOutputOverride(m, {{m.out_, zero}});
  driveAllInputs();
  ASSERT_EQ(probe.received.size(), 2u);
  EXPECT_EQ(probe.received[1].second, zero);

  // reset() drops the override: the module handles its inputs again, and a
  // fresh override fires once more.
  s.reset();
  driveAllInputs();
  ASSERT_EQ(probe.received.size(), 5u);
  EXPECT_EQ(probe.received[4].second, one);
  s.setOutputOverride(m, {{m.out_, zero}});
  driveAllInputs();
  ASSERT_EQ(probe.received.size(), 6u);
  EXPECT_EQ(probe.received[5].second, zero);

  // Cleared: every input event reaches the module's own handling.
  s.clearOutputOverride(m);
  driveAllInputs();
  ASSERT_EQ(probe.received.size(), 9u);
  for (std::size_t i = 6; i < 9; ++i) EXPECT_EQ(probe.received[i].second, one);
}

TEST(Scheduler, OverrideIsPerScheduler) {
  class Forward : public Module {
   public:
    Forward(std::string name, Connector& in, Connector& out)
        : Module(std::move(name)) {
      in_ = &addInput("in", in);
      out_ = &addOutput("out", out);
    }
    void processInputEvent(const SignalToken& t, SimContext& ctx) override {
      emit(ctx, *out_, t.value());
    }
    Port* in_;
    Port* out_;
  };
  BitConnector cin, cout;
  Forward f("f", cin, cout);
  Probe probe("probe", cout);
  Scheduler withOverride, plain;
  withOverride.setOutputOverride(f, {{f.out_, Word::fromLogic(Logic::L1)}});
  // Same stimulus on both schedulers.
  withOverride.schedule(
      std::make_unique<SignalToken>(*f.in_, Word::fromLogic(Logic::L0)));
  plain.schedule(
      std::make_unique<SignalToken>(*f.in_, Word::fromLogic(Logic::L0)));
  withOverride.run();
  plain.run();
  // The override only affected its own scheduler's view of the net.
  EXPECT_EQ(cout.value(withOverride.id()).scalar(), Logic::L1);
  EXPECT_EQ(cout.value(plain.id()).scalar(), Logic::L0);
}

TEST(Scheduler, PendingTokensFreedOnDestruction) {
  // No leak / crash when a scheduler dies with queued tokens (ASAN-clean).
  WordConnector c(8);
  Probe p("p", c);
  {
    Scheduler s;
    s.schedule(std::make_unique<SignalToken>(*c.endpoints()[0],
                                             Word::fromUint(8, 1)),
               100);
  }
  EXPECT_TRUE(p.received.empty());
}

}  // namespace
}  // namespace vcad
