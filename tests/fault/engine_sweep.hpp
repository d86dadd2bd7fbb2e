// The configuration sweep for the phase-2 campaign engine: one campaign
// per batch size × result-store state, each held bit-identical to the
// batch-size-1 run without a store (fault list, detected set, coverage
// curve, table accounting, injections), plus the flat full-disclosure
// SerialFaultSimulator oracle for designs whose fault scope maps 1:1 onto
// the flattened netlist.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "core/slot_registry.hpp"
#include "fault/block_design.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"

namespace vcad::fault::sweep {

inline constexpr std::size_t kBatchSizes[] = {1, 2, 4, 7, 64, 65};

/// Coverage identity: what the campaign decided.
inline void expectSameCoverage(const CampaignResult& got,
                               const CampaignResult& want,
                               const std::string& label) {
  EXPECT_EQ(got.faultList, want.faultList) << label;
  EXPECT_EQ(got.detected, want.detected) << label;
  EXPECT_EQ(got.detectedAfterPattern, want.detectedAfterPattern) << label;
}

/// Full identity: coverage plus the table and injection accounting.
inline void expectSameCampaign(const CampaignResult& got,
                               const CampaignResult& want,
                               const std::string& label) {
  expectSameCoverage(got, want, label);
  EXPECT_EQ(got.detectionTablesRequested, want.detectionTablesRequested)
      << label;
  EXPECT_EQ(got.tableFetchRoundTrips, want.tableFetchRoundTrips) << label;
  EXPECT_EQ(got.tableCacheHits, want.tableCacheHits) << label;
  EXPECT_EQ(got.tableStoreHits, want.tableStoreHits) << label;
  EXPECT_EQ(got.injections, want.injections) << label;
}

/// The flat full-disclosure oracle over the fault list a virtual campaign
/// published (valid when every published fault has a flat counterpart).
inline CampaignResult flatOracle(const BlockDesign& design,
                                 const std::vector<std::string>& faultList,
                                 const std::vector<Word>& packedPatterns) {
  const gate::Netlist flat = design.flatten();
  std::vector<gate::StuckFault> faults;
  faults.reserve(faultList.size());
  for (const std::string& qs : faultList) {
    faults.push_back(flatFaultOf(flat, qs));
  }
  SerialFaultSimulator serial(flat, faults, faultList);
  return serial.run(packedPatterns);
}

struct EngineRig {
  Circuit& circuit;
  std::vector<FaultClient*> components;
  std::vector<Connector*> pis;
  std::vector<Connector*> pos;
};

/// Runs the campaign at every batch size with no store, a cold store and
/// the same store warm, and checks each run against the batch-1 reference,
/// which it returns.
inline CampaignResult sweepConfigurations(
    const EngineRig& rig, const std::vector<Word>& packedPatterns,
    const std::string& label) {
  auto campaign = [&](std::size_t batch,
                      const std::shared_ptr<cache::ResultStore>& store) {
    VirtualFaultSimulator sim(rig.circuit, rig.components, rig.pis, rig.pos);
    sim.setBatchSize(batch);
    if (store != nullptr) sim.setResultStore(store);
    return sim.runPacked(packedPatterns);
  };
  const CampaignResult ref = campaign(1, nullptr);
  EXPECT_EQ(ref.tableFetchRoundTrips, ref.detectionTablesRequested) << label;
  EXPECT_EQ(ref.detectionTablesRequested + ref.tableCacheHits,
            packedPatterns.size() * rig.components.size())
      << label;

  for (std::size_t batch : kBatchSizes) {
    const std::string at = label + " batch=" + std::to_string(batch);
    // No store: batching only merges round trips.
    const CampaignResult none = campaign(batch, nullptr);
    expectSameCoverage(none, ref, at + " store=none");
    EXPECT_EQ(none.detectionTablesRequested, ref.detectionTablesRequested)
        << at;
    EXPECT_EQ(none.tableCacheHits, ref.tableCacheHits) << at;
    EXPECT_EQ(none.tableStoreHits, 0u) << at;
    EXPECT_EQ(none.injections, ref.injections) << at;
    EXPECT_LE(none.tableFetchRoundTrips, ref.tableFetchRoundTrips) << at;
    if (batch == 1) expectSameCampaign(none, ref, at + " store=none");
    // One pinned controller serves every run of the campaign.
    EXPECT_EQ(none.slotsLeased, 1u) << at;
    EXPECT_EQ(none.schedulerResets,
              packedPatterns.size() + none.injections - 1)
        << at;
    for (std::uint32_t slot = 0; slot < SlotRegistry::kCapacity; ++slot) {
      if (rig.circuit.residualStateCount(slot) != 0) {
        ADD_FAILURE() << at << ": residual state in slot " << slot;
      }
    }

    // Cold store: same traffic as no store; every fetch is written through.
    auto store = cache::ResultStore::inMemory();
    const CampaignResult cold = campaign(batch, store);
    expectSameCampaign(cold, none, at + " store=cold");

    // Warm store: every table the reference fetched is now a store hit.
    const CampaignResult warm = campaign(batch, store);
    expectSameCoverage(warm, ref, at + " store=warm");
    EXPECT_EQ(warm.tableStoreHits, ref.detectionTablesRequested) << at;
    EXPECT_EQ(warm.tableCacheHits, ref.tableCacheHits) << at;
    EXPECT_EQ(warm.detectionTablesRequested, 0u) << at;
    EXPECT_EQ(warm.tableFetchRoundTrips, 0u) << at;
    EXPECT_EQ(warm.injections, ref.injections) << at;
  }
  return ref;
}

}  // namespace vcad::fault::sweep
