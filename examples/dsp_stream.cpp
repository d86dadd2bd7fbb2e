// Higher-abstraction-level example: a behavioral DSP-style stream source
// (the kind of abstract design representation the paper sketches for video
// signals) drives a remote gain stage (IP multiplier), after the user
// *negotiates* the power estimator interactively with the provider — the
// paper's declared future development. The resulting waveforms are dumped
// to a standard VCD file.
#include <cstdio>

#include "core/sim_controller.hpp"
#include "gate/generators.hpp"
#include "ip/negotiation.hpp"
#include "ip/remote_component.hpp"
#include "rtl/behavioral.hpp"
#include "rtl/modules.hpp"
#include "rtl/vcd.hpp"

using namespace vcad;

int main() {
  const int width = 8;

  // --- provider --------------------------------------------------------
  LogSink log;
  ip::ProviderServer server("dsp-ip.example", &log);
  {
    ip::IpComponentSpec spec;
    spec.name = "GainStage";
    spec.description = "multiplier-based programmable gain";
    spec.minWidth = 4;
    spec.maxWidth = 16;
    spec.functional = ip::ModelLevel::Static;
    spec.power = ip::ModelLevel::Dynamic;
    spec.hasLinearPowerModel = true;
    spec.fees.perPowerPatternCents = 0.05;
    server.registerComponent(
        spec,
        [](std::uint64_t w) {
          return std::make_shared<const gate::Netlist>(
              gate::makeArrayMultiplier(static_cast<int>(w)));
        },
        [](std::uint64_t w) {
          ip::PublicPart pub;
          pub.functional = [w](const Word& in, const rmi::Sandbox&) {
            const int wd = static_cast<int>(w);
            const Word a = in.slice(0, wd);
            const Word b = in.slice(wd, wd);
            if (!a.isFullyKnown() || !b.isFullyKnown()) {
              return Word::allX(2 * wd);
            }
            return Word::fromUint(2 * wd, a.toUint() * b.toUint());
          };
          return pub;
        });
  }
  rmi::RmiChannel channel(server, net::NetworkProfile::lan(), &log);
  ip::ProviderHandle provider(channel);

  // --- the design --------------------------------------------------------
  Circuit c("dsp");
  Connector& sample = c.makeWord(width, "sample");
  Connector& gain = c.makeWord(width, "gain");
  Connector& scaled = c.makeWord(2 * width, "scaled");

  // Behavioral stream source: a triangle wave with a slow gain ramp —
  // entirely abstract, no structural model.
  c.make<rtl::BehavioralProcess>(
      "stream", std::vector<std::pair<std::string, Connector*>>{},
      std::vector<std::pair<std::string, Connector*>>{{"sample", &sample},
                                                      {"gain", &gain}},
      [](rtl::BehavioralProcess::Activation& act) {
        Word& phase = act.memory(0, 16);
        const std::uint64_t t = phase.isFullyKnown() ? phase.toUint() : 0;
        if (t >= 64) {  // end of stream
          act.stopPeriodic();
          return;
        }
        phase = Word::fromUint(16, t + 1);
        const std::uint64_t tri =
            (t % 32) < 16 ? (t % 16) * 16 : (15 - (t % 16)) * 16;
        act.drive(0, Word::fromUint(8, tri));
        act.drive(1, Word::fromUint(8, 1 + t / 8));
      },
      /*period=*/10);

  ip::RemoteConfig cfg;
  cfg.patternBufferCapacity = 8;
  auto& gainStage = c.make<ip::RemoteComponent>(
      "GAIN", provider, "GainStage", width,
      std::vector<std::pair<std::string, Connector*>>{{"a", &sample},
                                                      {"b", &gain}},
      std::vector<std::pair<std::string, Connector*>>{{"o", &scaled}}, cfg);
  auto& out = c.make<rtl::PrimaryOutput>("OUT", scaled);

  // --- interactive estimator negotiation ---------------------------------
  std::printf("negotiating a power estimator (want <=15%% error):\n");
  auto round1 = ip::negotiateEstimator(provider, gainStage.instanceId(),
                                       ParamKind::AvgPower,
                                       /*maxCost=*/0.0, /*maxError=*/15.0);
  if (round1.outcome == ip::NegotiationResult::Outcome::CounterOffer) {
    std::printf("  provider counter-offer: %s at %.2f cents/use\n",
                round1.offer.name.c_str(), round1.offer.costPerUseCents);
    auto round2 = ip::negotiateEstimator(provider, gainStage.instanceId(),
                                         ParamKind::AvgPower,
                                         round1.offer.costPerUseCents, 15.0);
    std::printf("  accepted: %s (%.0f%% error, %.2f cents/use)\n",
                round2.offer.name.c_str(), round2.offer.errorPct,
                round2.offer.costPerUseCents);
  } else {
    std::printf("  accepted immediately: %s\n", round1.offer.name.c_str());
  }

  // --- simulate -----------------------------------------------------------
  SimulationController sim(c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};

  const auto power = gainStage.finishPowerEstimation(ctx);
  const std::size_t samples = out.sampleCount(ctx);
  std::printf("\nstreamed %zu samples; last scaled value %s\n", samples,
              out.last(ctx).toString().c_str());
  std::printf("remote power estimate: %.3f mW; fees: %.2f cents\n",
              power.value_or(0.0),
              server.sessionFeesCents(provider.session()));

  // --- waveform dump ---------------------------------------------------
  rtl::VcdWriter vcd("1ns");
  vcd.addTrack("scaled", out, ctx);
  const std::string path = "dsp_stream.vcd";
  vcd.writeFile(path);
  std::printf("waveform written to %s (open with any VCD viewer)\n",
              path.c_str());

  // Each of the stream's 64 steps is one evaluation of the remote gain
  // stage, and each evaluation is one sample, whatever the backplane does
  // with unknown values. The example's smoke test relies on this exit code.
  if (samples != 64) {
    std::fprintf(stderr, "expected 64 samples, streamed %zu\n", samples);
    return 1;
  }
  return 0;
}
