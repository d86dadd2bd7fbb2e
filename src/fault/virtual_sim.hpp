// VirtualFaultSimulator: fault simulation of an IP-based design without IP
// disclosure — the paper's central contribution.
//
// Two-phase protocol:
//   Phase 1 (static):  build the design fault list as the union of every
//                      component's symbolic fault list.
//   Phase 2 (dynamic): per test pattern, simulate the fault-free design,
//                      hand each component its observed input configuration,
//                      receive a detection table, and for each table row
//                      with undetected faults inject the erroneous output
//                      configuration into the fault-free design (a dedicated
//                      single-instant scheduler with the faulty module's
//                      event handling replaced by a forced output
//                      assignment). If a primary output differs from the
//                      fault-free response, every fault in the row is
//                      detected and dropped from the list.
//
// Phase 2 runs in batches of setBatchSize() patterns (default 1):
//   1. fault-free runs of the batch, snapshotting the golden primary
//      outputs and every component's observed inputs;
//   2. per component, configurations not in the client cache or the shared
//      result store are fetched in one round trip — detectionTable() for a
//      single configuration, detectionTables() (the paper's pattern
//      buffering) for two or more;
//   3. per pattern, in order, every row with an undetected fault is
//      injected. Row-skip decisions use the detected set at the start of
//      the pattern: rows of one table are fault-disjoint and component
//      fault names carry distinct "<module>/" prefixes, so nothing detected
//      mid-pattern can touch another pending row of the same pattern.
// All runs share one pinned controller, reset() between runs (an O(1)
// generation renew of its scheduler slot): the multi-scheduler backplane
// isolates each run with no save/restore action, and a whole campaign
// leases a single slot. The result — fault list, detected set, coverage
// curve, table accounting — does not depend on the batch size; only the
// round-trip count shrinks as batches grow.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "core/sim_controller.hpp"
#include "fault/fault_client.hpp"

namespace vcad::fault {

struct CampaignResult {
  std::vector<std::string> faultList;       // qualified "<module>/<symbol>"
  std::set<std::string> detected;
  std::vector<std::size_t> detectedAfterPattern;  // cumulative per pattern

  // Protocol/effort accounting for the ablation benches.
  std::uint64_t detectionTablesRequested = 0;
  std::uint64_t tableFetchRoundTrips = 0;  // provider message pairs spent on
                                           // tables; < requested when the
                                           // batched GetDetectionTables
                                           // method amortizes them
  std::uint64_t tableCacheHits = 0;  // repeated input configurations served
                                     // from the client-side cache (the paper:
                                     // pattern 1101 "leads to the same
                                     // detection table" as 1100)
  std::uint64_t tableStoreHits = 0;  // configurations this campaign had not
                                     // seen but the shared result store had:
                                     // no client fetch happened, the table
                                     // came from a previous campaign/session
                                     // (not counted in
                                     // detectionTablesRequested)
  std::uint64_t injections = 0;
  std::uint64_t faultSimEvaluations = 0;  // serial baseline only

  // Arena/scheduler metrics: how many scheduler slots the campaign leased
  // from the SlotRegistry, the high-water mark of concurrently live
  // schedulers while it ran, and how often the pinned controller was
  // reset-and-reused instead of reconstructed.
  std::uint64_t slotsLeased = 0;
  std::uint32_t peakConcurrentSchedulers = 0;
  std::uint64_t schedulerResets = 0;

  double coverage() const {
    return faultList.empty() ? 0.0
                             : static_cast<double>(detected.size()) /
                                   static_cast<double>(faultList.size());
  }
};

class VirtualFaultSimulator {
 public:
  /// `components` are the design's fault-participating blocks;
  /// `primaryInputs`/`primaryOutputs` are the connectors where patterns are
  /// applied and responses observed. All connectors must belong to `design`.
  VirtualFaultSimulator(Circuit& design, std::vector<FaultClient*> components,
                        std::vector<Connector*> primaryInputs,
                        std::vector<Connector*> primaryOutputs);

  /// Runs the two-phase campaign over the given patterns. Each pattern
  /// holds one word per primary-input connector, in order.
  CampaignResult run(const std::vector<std::vector<Word>>& patterns);

  /// Convenience for all-single-bit primary inputs: bit i of each packed
  /// word drives primaryInputs[i].
  CampaignResult runPacked(const std::vector<Word>& packedPatterns);

  /// Patterns per phase-2 batch (default 1, at least 1). Each batch costs
  /// at most one table round trip per component, so larger batches fill
  /// more lanes of the provider's packed table builder per request. Batch
  /// size 1 sends exactly one GetDetectionTable per missing configuration,
  /// the traffic the paper's Table 2 / Figure 3 experiments count.
  void setBatchSize(std::size_t n);
  std::size_t batchSize() const { return batchSize_; }

  /// Attaches a shared result store to the per-component table caches:
  /// configurations another campaign (or session, or process — the store
  /// may be disk-backed) already characterized are served locally with no
  /// client fetch, counted as CampaignResult::tableStoreHits. Only
  /// components with a non-zero versionDigest() participate.
  void setResultStore(std::shared_ptr<cache::ResultStore> store,
                      std::uint64_t ns = 0) {
    store_ = std::move(store);
    storeNamespace_ = ns;
  }

 private:
  void applyPattern(SimulationController& sim,
                    const std::vector<Word>& pattern);

  Circuit& design_;
  std::vector<FaultClient*> components_;
  std::vector<Connector*> pis_;
  std::vector<Connector*> pos_;
  std::size_t batchSize_ = 1;
  std::shared_ptr<cache::ResultStore> store_;
  std::uint64_t storeNamespace_ = 0;
};

/// Expands packed single-bit patterns (bit i -> primary input i) into the
/// one-word-per-input form run() consumes.
std::vector<std::vector<Word>> unpackPatterns(
    const std::vector<Word>& packedPatterns, std::size_t primaryInputs);

/// Mirrors a finished campaign's accounting into the global obs::Registry
/// (campaign.* counters / gauges). Called by run() right before it returns;
/// the CampaignResult itself stays the source of truth.
void recordCampaignMetrics(const CampaignResult& res);

}  // namespace vcad::fault
