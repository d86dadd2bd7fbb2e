// FaultClient: the user's per-component window into virtual fault
// simulation.
//
// Phase 1 of the protocol needs each component's symbolic fault list; phase
// 2 needs, for the component's current input configuration, its detection
// table. For local (user-owned) components both are computed in place; for
// remote IP components the same interface is implemented by an RMI stub (see
// src/ip), with the provider evaluating tables server-side — the user never
// needs the netlist.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/module.hpp"
#include "fault/detection.hpp"
#include "fault/model.hpp"
#include "gate/netlist_module.hpp"

namespace vcad::fault {

class FaultClient {
 public:
  virtual ~FaultClient() = default;

  /// The backplane module realizing this component in the design.
  virtual Module& module() = 0;

  /// Phase 1: symbolic fault list (collapsed, internal faults only).
  virtual std::vector<std::string> faultList() = 0;

  /// Phase 2: detection table for one input configuration.
  virtual DetectionTable detectionTable(const Word& inputs) = 0;

  /// Phase 2, batched: one detection table per buffered input configuration,
  /// in order. The default falls back to one detectionTable() call per
  /// entry; remote implementations override it to fetch the whole buffer in
  /// a single round trip (the paper's pattern-buffering mechanism applied to
  /// fault characterization).
  virtual std::vector<DetectionTable> detectionTables(
      const std::vector<Word>& inputs);

  /// Netlist-version digest of the implementation behind this client —
  /// the content half of the result-store key (see cache::netlistDigest).
  /// Local blocks derive it from the netlist they own; remote stubs learn
  /// it from the provider's responses. 0 = unversioned: results from this
  /// client must not be cached across sessions (and a shared store is
  /// never consulted for them).
  virtual std::uint64_t versionDigest() const { return 0; }

  /// Component input configuration currently visible to `ctx`'s scheduler
  /// (one bit per module input port, in port order).
  Word observedInputs(const SimContext& ctx);

  /// Output override list realizing `faultyOutputs` on the component's
  /// output ports (bit i of the word -> output port i).
  std::vector<Scheduler::OutputOverride> overridesFor(const Word& faultyOutputs);
};

/// Which nets of a component carry published faults. The paper's provider
/// policy publishes internal faults only (the user directly handles faults
/// on its own visible input/output signals); equivalence experiments widen
/// the scope to compare against a flat full-disclosure simulator.
struct FaultScope {
  bool includeInputs = false;
  bool includeOutputs = false;
};

/// Local (user-owned) component: fault information computed directly from
/// the netlist, which the user legitimately possesses.
class LocalFaultBlock final : public FaultClient {
 public:
  explicit LocalFaultBlock(gate::NetlistModule& module, bool dominance = true,
                           FaultScope scope = {});

  Module& module() override { return module_; }
  std::vector<std::string> faultList() override;
  DetectionTable detectionTable(const Word& inputs) override;

  /// Batched tables on the packed bit-parallel engine (see
  /// DetectionTableBuilder).
  std::vector<DetectionTable> detectionTables(
      const std::vector<Word>& inputs) override;

  std::uint64_t versionDigest() const override { return digest_; }

  const CollapsedFaults& collapsed() const { return collapsed_; }

 private:
  gate::NetlistModule& module_;
  CollapsedFaults collapsed_;
  DetectionTableBuilder tables_;
  std::uint64_t digest_ = 0;
};

}  // namespace vcad::fault
