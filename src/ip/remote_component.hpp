// Client side of an IP component: the provider handle (session), the
// remote component module (public part + RMI stub), the remote fault client,
// and the estimator candidates derived from a component's advertised spec.
//
// A RemoteComponent is instantiated exactly like a local module — its
// constructor just additionally cites a provider handle (the paper's
// Figure 2 pattern) and passes the width parameter to the provider, which
// expands its parametric macro server-side.
//
// Two remote modes reproduce the paper's scenarios:
//   EstimatorRemote (ER): the public part evaluates functionality locally;
//       only estimation methods (and fault characterization) run remotely.
//       Input patterns destined for power estimation are buffered locally
//       and shipped in batches; batch calls may run non-blocking on a new
//       thread so accurate-simulation latency hides behind client work.
//   FullyRemote (MR): every functional event is marshalled to the provider
//       (argument marshalling per event — the costly case of Table 2);
//       patterns buffer remotely as a side effect of evaluation.
#pragma once

#include <atomic>
#include <future>
#include <optional>

#include "core/module.hpp"
#include "estim/power_estimators.hpp"
#include "fault/fault_client.hpp"
#include "ip/provider_server.hpp"
#include "rmi/channel.hpp"

namespace vcad::ip {

enum class RemoteMode { EstimatorRemote, FullyRemote };

/// What a session must remember to survive a provider restart: the ordered
/// list of live instantiations. Recovery replays it against a fresh session
/// (re-`Instantiate`), rebinding each holder to its new instance id.
struct SessionManifest {
  struct Entry {
    std::string component;
    std::uint64_t param = 0;
    rmi::InstanceId instance = 0;  // current (post-recovery) id
  };
  std::vector<Entry> entries;
};

/// The user's live connection to one provider: channel + open session.
/// (The "JavaCADServer provider = new JavaCADServer(host)" analog.)
///
/// The handle is the client's recovery point for an unreliable channel: it
/// records a session manifest of every instantiation, and when a call comes
/// back UnknownSession (provider restarted) it reopens a session, replays
/// the manifest and retries — so a long fault campaign survives a mid-run
/// provider restart. A TransportFailure (retries exhausted) is retried with
/// the *same* idempotency key, so work the provider already completed and
/// billed is answered from its replay cache, never executed twice.
class ProviderHandle {
 public:
  /// How blocking calls travel: straight through RmiChannel::call, or
  /// submitted to the channel's completion queue and waited on — the same
  /// simulated outcome (the chaos harness holds that line bit-for-bit),
  /// exercised end-to-end through the async machinery.
  enum class CallMode { Blocking, CompletionQueue };

  explicit ProviderHandle(rmi::RmiChannel& channel,
                          CallMode mode = CallMode::Blocking);

  rmi::RmiChannel& channel() { return *channel_; }
  rmi::SessionId session() const {
    return session_.load(std::memory_order_acquire);
  }

  void setCallMode(CallMode mode) { callMode_ = mode; }
  CallMode callMode() const { return callMode_; }

  rmi::Response call(rmi::MethodId method, rmi::InstanceId instance,
                     rmi::Args args, const std::string& component = "");
  std::future<rmi::Response> callAsync(rmi::MethodId method,
                                       rmi::InstanceId instance,
                                       rmi::Args args);

  /// Fetches and deserializes the provider's catalog.
  std::vector<IpComponentSpec> catalog();

  // --- session recovery ---------------------------------------------------

  /// Blocking calls transparently recover from UnknownSession /
  /// TransportFailure (default on). Async calls never auto-recover.
  void setAutoRecover(bool on) { autoRecover_ = on; }

  /// Registers a live instantiation in the session manifest. `rebind` is
  /// invoked with the new instance id after each recovery (under the
  /// recovery lock — it must not call back into the handle); the holder must
  /// outlive the handle or call forgetInstantiation first.
  using RecoveryToken = std::size_t;
  static constexpr RecoveryToken kNoRecoveryToken =
      static_cast<RecoveryToken>(-1);
  RecoveryToken recordInstantiation(std::string component, std::uint64_t param,
                                    rmi::InstanceId instance,
                                    std::function<void(rmi::InstanceId)> rebind);
  void forgetInstantiation(RecoveryToken token);

  /// Probes the session and, if it is gone, reopens one and replays the
  /// manifest. Safe to call concurrently (one recovery wins, the rest
  /// observe it). Returns false when the provider cannot be reached or a
  /// manifest entry fails to re-instantiate.
  bool recover();

  /// Completed session recoveries (0 on an undisturbed run).
  std::uint64_t recoveries() const {
    return recoveries_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the live manifest (for inspection/tests).
  SessionManifest manifest() const;

 private:
  struct RecoveryEntry {
    SessionManifest::Entry entry;
    std::function<void(rmi::InstanceId)> rebind;
    bool active = false;
  };

  rmi::Response callRaw(rmi::MethodId method, rmi::SessionId session,
                        rmi::InstanceId instance, rmi::Args args,
                        const std::string& component, std::uint64_t key);
  /// Routes one request per the handle's call mode.
  rmi::Response channelCall(const rmi::Request& request);
  rmi::InstanceId currentInstance(rmi::InstanceId instance) const;

  rmi::RmiChannel* channel_;
  CallMode callMode_ = CallMode::Blocking;
  std::atomic<rmi::SessionId> session_{0};
  bool autoRecover_ = true;
  std::atomic<std::uint64_t> recoveries_{0};
  mutable std::mutex recoveryMutex_;  // guards entries_ and remap_
  std::vector<RecoveryEntry> entries_;
  std::map<rmi::InstanceId, rmi::InstanceId> remap_;  // old id -> current id
};

struct RemoteConfig {
  RemoteMode mode = RemoteMode::EstimatorRemote;
  std::size_t patternBufferCapacity = 5;  // Table 2 uses a buffer of five
  bool nonblockingEstimation = true;      // new-thread gate-level runs
  bool collectPower = true;               // drive EstimatePower per batch
  /// Where the public part ("loadable bytecode") comes from. In-process
  /// channels discover the source behind the loopback endpoint
  /// automatically; a socket channel crosses a process boundary, so the
  /// client must name its local source explicitly (the paper's download
  /// happens out of band of the RMI session). Must outlive the component.
  const PublicPartSource* publicPartSource = nullptr;
};

class RemoteComponent : public Module {
 public:
  using Config = RemoteConfig;

  /// Instantiates the component on the provider (passing `param`, e.g. the
  /// word width) and downloads the public part. Input/output connectors are
  /// bound in order; the concatenation of input port bits must match the
  /// provider netlist's primary inputs, and likewise for outputs.
  RemoteComponent(std::string name, ProviderHandle& provider,
                  const std::string& componentName, std::uint64_t param,
                  std::vector<std::pair<std::string, Connector*>> inputs,
                  std::vector<std::pair<std::string, Connector*>> outputs,
                  Config config = {}, const rmi::Sandbox* sandbox = nullptr);
  ~RemoteComponent() override;

  /// Input events arriving within one simulation instant are coalesced: the
  /// component defers its (possibly remote) evaluation with a zero-delay
  /// self token, so simultaneous operand updates trigger exactly one
  /// evaluation — one pattern, one RMI call.
  ///
  /// Every evaluation emits each output port's slice of the result, repeats
  /// included, except an all-X slice on a port whose last value scheduled
  /// in this run is all-X as well (or that has none yet): that emission
  /// would only wake the downstream blocks to re-evaluate the same unknown
  /// inputs. The comparison is with the driver-side scheduled value, not
  /// the connector's current one, so an X that follows a still-pending
  /// known value does go out.
  void processInputEvent(const SignalToken& token, SimContext& ctx) override;
  void processSelfEvent(const SelfToken& token, SimContext& ctx) override;

  /// Flushes the pending pattern buffer and harvests outstanding
  /// non-blocking estimates; returns the weighted-average remote power
  /// estimate collected so far (mW), or nullopt when none was gathered.
  std::optional<double> finishPowerEstimation(const SimContext& ctx);

  rmi::InstanceId instanceId() const {
    return instance_.load(std::memory_order_acquire);
  }
  RemoteMode mode() const { return config_.mode; }
  const Config& config() const { return config_; }
  ProviderHandle& provider() { return *provider_; }

  /// Remote-call failures observed during simulation (the harness checks
  /// this stays zero).
  std::uint64_t remoteErrors() const { return remoteErrors_; }

 private:
  struct State : ModuleState {
    bool evalPending = false;
    std::unique_ptr<estim::PatternBuffer> buffer;
    double powerWeightedSum = 0.0;
    double powerWeight = 0.0;
    std::vector<std::future<rmi::Response>> pending;
    /// Per output port: the value last scheduled on it in this run is
    /// all-X. Sized on the first emission; a fresh run starts all-X.
    std::vector<bool> scheduledAllX;
  };

  Word gatherInputs(const SimContext& ctx) const;
  void emitOutputs(SimContext& ctx, State& st, const Word& outs);
  void recordPattern(State& st, const Word& inputs);
  void harvest(State& st, rmi::Response resp);

  ProviderHandle* provider_;
  Config config_;
  /// Atomic because session recovery rebinds it from whichever thread hit
  /// the dead session while non-blocking estimation threads may be reading.
  std::atomic<rmi::InstanceId> instance_{0};
  ProviderHandle::RecoveryToken recoveryToken_ =
      ProviderHandle::kNoRecoveryToken;
  PublicPart publicPart_;
  rmi::Sandbox defaultSandbox_;
  const rmi::Sandbox* sandbox_;
  int inWidth_ = 0;
  int outWidth_ = 0;
  std::vector<Port*> inPorts_;
  std::vector<Port*> outPorts_;
  std::atomic<std::uint64_t> remoteErrors_{0};
};

/// FaultClient implementation backed by the provider: the user obtains the
/// symbolic fault list and per-pattern detection tables over RMI, never the
/// netlist.
class RemoteFaultClient final : public fault::FaultClient {
 public:
  explicit RemoteFaultClient(RemoteComponent& component);

  Module& module() override { return component_; }
  std::vector<std::string> faultList() override;
  fault::DetectionTable detectionTable(const Word& inputs) override;

  /// Batched fetch: ships the whole buffer of input configurations in one
  /// GetDetectionTables request — one message pair on the channel instead of
  /// one per configuration.
  std::vector<fault::DetectionTable> detectionTables(
      const std::vector<Word>& inputs) override;

  /// Netlist-version digest learned from the provider's responses
  /// (Response::version). 0 until the first successful fault call; changes
  /// only if the provider re-instantiates with a different netlist, at
  /// which point previously fetched tables are stale.
  std::uint64_t versionDigest() const override {
    return version_.load(std::memory_order_acquire);
  }

 private:
  void noteVersion(std::uint64_t v) {
    if (v != 0) version_.store(v, std::memory_order_release);
  }

  RemoteComponent& component_;
  std::atomic<std::uint64_t> version_{0};
};

/// Sequential fault-simulation client backed by a provider: instantiates
/// the sequential component remotely and drives the fault-free machine and
/// per-fault shadow machines over RMI — the sequential extension of virtual
/// fault simulation. Only cycle inputs and outputs cross the channel.
class RemoteSeqFaultClient final : public fault::SeqFaultClient {
 public:
  RemoteSeqFaultClient(ProviderHandle& provider,
                       const std::string& componentName, std::uint64_t param);
  ~RemoteSeqFaultClient() override;

  std::vector<std::string> faultList() override;
  void resetGood() override;
  Word stepGood(const Word& inputs) override;
  void resetFaulty(const std::string& symbol) override;
  Word stepFaulty(const std::string& symbol, const Word& inputs) override;

  rmi::InstanceId instanceId() const {
    return instance_.load(std::memory_order_acquire);
  }

 private:
  void reset(const std::string& symbol);
  Word step(const std::string& symbol, const Word& inputs);

  ProviderHandle* provider_;
  std::atomic<rmi::InstanceId> instance_{0};
  ProviderHandle::RecoveryToken recoveryToken_ =
      ProviderHandle::kNoRecoveryToken;
};

/// Estimator that forwards to the provider's dynamic power model, shipping
/// the context's pattern history as the batch.
class RemotePowerEstimator final : public Estimator {
 public:
  RemotePowerEstimator(RemoteComponent& component, double costPerPatternCents);

  std::unique_ptr<ParamValue> estimate(const EstimationContext& ctx) override;

 private:
  RemoteComponent& component_;
};

/// Builds the candidate estimator set a user can register on a module from
/// the provider's advertised spec: constant and linear-regression power
/// models when published (Static), and the remote gate-level estimator when
/// the provider offers Dynamic power estimation.
void attachSpecEstimators(Module& module, const IpComponentSpec& spec,
                          RemoteComponent* remote);

}  // namespace vcad::ip
