#include "fault/virtual_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "core/slot_registry.hpp"
#include "fault/table_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vcad::fault {

namespace {
struct CampaignMetrics {
  obs::Registry::MetricId runs, patterns, faults, detected, injections,
      tablesRequested, tableRoundTrips, tableCacheHits, tableStoreHits,
      slotsLeased, schedulerResets;
  obs::Registry::MetricId peakConcurrentSchedulers;

  static const CampaignMetrics& get() {
    static const CampaignMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return CampaignMetrics{r.counter("campaign.runs"),
                             r.counter("campaign.patterns"),
                             r.counter("campaign.faults"),
                             r.counter("campaign.detected"),
                             r.counter("campaign.injections"),
                             r.counter("campaign.tablesRequested"),
                             r.counter("campaign.tableRoundTrips"),
                             r.counter("campaign.tableCacheHits"),
                             r.counter("campaign.tableStoreHits"),
                             r.counter("campaign.slotsLeased"),
                             r.counter("campaign.schedulerResets"),
                             r.gauge("campaign.peakConcurrentSchedulers")};
    }();
    return m;
  }
};
}  // namespace

void recordCampaignMetrics(const CampaignResult& res) {
  const CampaignMetrics& ids = CampaignMetrics::get();
  obs::Registry& reg = obs::Registry::global();
  reg.add(ids.runs);
  reg.add(ids.patterns, res.detectedAfterPattern.size());
  reg.add(ids.faults, res.faultList.size());
  reg.add(ids.detected, res.detected.size());
  reg.add(ids.injections, res.injections);
  reg.add(ids.tablesRequested, res.detectionTablesRequested);
  reg.add(ids.tableRoundTrips, res.tableFetchRoundTrips);
  reg.add(ids.tableCacheHits, res.tableCacheHits);
  reg.add(ids.tableStoreHits, res.tableStoreHits);
  reg.add(ids.slotsLeased, res.slotsLeased);
  reg.add(ids.schedulerResets, res.schedulerResets);
  reg.maxGauge(ids.peakConcurrentSchedulers,
               static_cast<std::int64_t>(res.peakConcurrentSchedulers));
}

VirtualFaultSimulator::VirtualFaultSimulator(
    Circuit& design, std::vector<FaultClient*> components,
    std::vector<Connector*> primaryInputs,
    std::vector<Connector*> primaryOutputs)
    : design_(design),
      components_(std::move(components)),
      pis_(std::move(primaryInputs)),
      pos_(std::move(primaryOutputs)) {
  if (components_.empty()) {
    throw std::invalid_argument("VirtualFaultSimulator: no components");
  }
  if (pis_.empty() || pos_.empty()) {
    throw std::invalid_argument(
        "VirtualFaultSimulator: need primary inputs and outputs");
  }
}

void VirtualFaultSimulator::applyPattern(SimulationController& sim,
                                         const std::vector<Word>& pattern) {
  if (pattern.size() != pis_.size()) {
    throw std::invalid_argument("pattern arity does not match primary inputs");
  }
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    sim.inject(*pis_[i], pattern[i]);
  }
  sim.start();
}

void VirtualFaultSimulator::setBatchSize(std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument(
        "VirtualFaultSimulator: batch size must be >= 1");
  }
  batchSize_ = n;
}

CampaignResult VirtualFaultSimulator::run(
    const std::vector<std::vector<Word>>& patterns) {
  SlotRegistry& registry = SlotRegistry::global();
  const std::uint64_t leasesBefore = registry.totalLeases();
  registry.restartPeakTracking();

  obs::SpanScope campaignSpan("campaign.run", "campaign");
  campaignSpan.arg("batchSize", static_cast<double>(batchSize_));
  CampaignResult res;

  // --- Phase 1: compose the symbolic fault lists -------------------------
  // Per-component table cache keyed by the observed input configuration
  // (pinned tables have stable addresses, so rows are bound by pointer). It
  // also numbers the component's faults: phase-1 faults in list order, then
  // any other fault a table row names.
  std::vector<DetectionTableCache> cache(components_.size());
  std::vector<std::string> prefixes(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    prefixes[c] = components_[c]->module().name() + "/";
    for (const std::string& s : components_[c]->faultList()) {
      res.faultList.push_back(prefixes[c] + s);
      cache[c].addFault(s);
    }
  }

  // --- Phase 2 ------------------------------------------------------------
  // The optional view onto the shared result store is attached after
  // phase 1: remote stubs learn their netlist-version digest from the
  // GetFaultList response.
  if (store_ != nullptr) {
    for (std::size_t c = 0; c < components_.size(); ++c) {
      cache[c].attachStore(store_, components_[c]->versionDigest(),
                           storeNamespace_);
    }
  }

  // Every fault-free run and every injection runs on this one controller.
  SimulationController sim(design_);
  bool simUsed = false;
  auto freshSim = [&]() -> SimulationController& {
    if (simUsed) {
      sim.reset();
      ++res.schedulerResets;
    }
    simUsed = true;
    return sim;
  };
  auto poValue = [&](std::size_t k) {
    return pos_[k]->value(sim.scheduler().slot(),
                          sim.scheduler().slotGeneration());
  };

  // Per component, indexed by fault id: the fault is detected. Grows as
  // pinned tables name faults past the phase-1 list.
  std::vector<std::vector<char>> detected(components_.size());

  struct PatternRun {
    std::vector<Word> golden;      // fault-free primary-output snapshot
    std::vector<Word> compInputs;  // observed inputs, one per component
    std::vector<const DetectionTableCache::Pinned*> tables;  // per component
  };
  struct Job {
    std::size_t comp;
    const DetectionTable::Row* row;
    const std::vector<std::uint32_t>* faults;  // the row's fault ids
  };
  std::vector<PatternRun> runs;
  std::vector<Job> jobs;

  for (std::size_t base = 0; base < patterns.size(); base += batchSize_) {
    const std::size_t nBatch = std::min(batchSize_, patterns.size() - base);

    // 1. Fault-free runs: snapshot what phase 2 needs, so the controller
    //    is free for the next run.
    obs::SpanScope goldenSpan("campaign.golden", "campaign");
    runs.assign(nBatch, PatternRun{});
    std::uint64_t goldenEvents = 0;
    for (std::size_t i = 0; i < nBatch; ++i) {
      applyPattern(freshSim(), patterns[base + i]);
      goldenEvents += sim.scheduler().dispatched();
      PatternRun& pr = runs[i];
      pr.golden.reserve(pos_.size());
      for (std::size_t k = 0; k < pos_.size(); ++k) {
        pr.golden.push_back(poValue(k));
      }
      const SimContext ctx{sim.scheduler(), nullptr};
      pr.compInputs.reserve(components_.size());
      for (FaultClient* comp : components_) {
        pr.compInputs.push_back(comp->observedInputs(ctx));
      }
    }
    goldenSpan.arg("events", static_cast<double>(goldenEvents));
    goldenSpan.end();

    // 2. Table fetch, per component: client cache, then result store, then
    //    one round trip for the batch's missing configurations.
    obs::SpanScope tableFetchSpan("campaign.tableFetch", "campaign");
    tableFetchSpan.arg("patterns", static_cast<double>(nBatch));
    const std::uint64_t roundTripsBefore = res.tableFetchRoundTrips;
    for (std::size_t c = 0; c < components_.size(); ++c) {
      FaultClient& comp = *components_[c];
      DetectionTableCache& compCache = cache[c];
      std::vector<Word> missing;
      std::unordered_set<Word, WordHash> pending;
      for (std::size_t i = 0; i < nBatch; ++i) {
        const Word& inputs = runs[i].compInputs[c];
        if (compCache.findPinned(inputs) != nullptr ||
            pending.count(inputs) != 0) {
          ++res.tableCacheHits;
        } else if (compCache.findStored(inputs) != nullptr) {
          ++res.tableStoreHits;
        } else {
          pending.insert(inputs);
          missing.push_back(inputs);
        }
      }
      if (missing.size() == 1) {
        compCache.insert(missing[0], comp.detectionTable(missing[0]));
      } else if (missing.size() > 1) {
        std::vector<DetectionTable> fetched = comp.detectionTables(missing);
        if (fetched.size() != missing.size()) {
          throw std::runtime_error(
              "detectionTables returned a short batch for component " +
              comp.module().name());
        }
        for (std::size_t j = 0; j < fetched.size(); ++j) {
          compCache.insert(missing[j], std::move(fetched[j]));
        }
      }
      if (!missing.empty()) {
        res.detectionTablesRequested += missing.size();
        ++res.tableFetchRoundTrips;
      }
      detected[c].resize(compCache.faultCount(), 0);
      for (std::size_t i = 0; i < nBatch; ++i) {
        runs[i].tables.push_back(compCache.findPinned(runs[i].compInputs[c]));
      }
    }
    tableFetchSpan.arg(
        "roundTrips",
        static_cast<double>(res.tableFetchRoundTrips - roundTripsBefore));
    tableFetchSpan.end();

    // 3. Injections, pattern by pattern, so the coverage curve is per
    //    pattern.
    for (std::size_t i = 0; i < nBatch; ++i) {
      const PatternRun& pr = runs[i];
      obs::SpanScope patternSpan("campaign.pattern", "campaign");
      patternSpan.arg("pattern", static_cast<double>(base + i));
      jobs.clear();
      for (std::size_t c = 0; c < components_.size(); ++c) {
        const DetectionTableCache::Pinned& t = *pr.tables[c];
        const std::vector<char>& done = detected[c];
        for (std::size_t r = 0; r < t.rowIds.size(); ++r) {
          for (const std::uint32_t id : t.rowIds[r]) {
            if (done[id] == 0) {
              jobs.push_back(Job{c, &t.table.rows()[r], &t.rowIds[r]});
              break;
            }
          }
        }
      }
      std::uint64_t injectionEvents = 0;
      for (const Job& job : jobs) {
        FaultClient& comp = *components_[job.comp];
        SimulationController& inj = freshSim();
        inj.forceOutputs(comp.module(), comp.overridesFor(job.row->faultyOutput));
        applyPattern(inj, patterns[base + i]);
        injectionEvents += inj.scheduler().dispatched();
        if (obs::Tracer::global().verbose()) {
          obs::Tracer::global().instant(
              "campaign.inject", "campaign",
              {{"component", static_cast<double>(job.comp)},
               {"rowFaults", static_cast<double>(job.row->faults.size())}});
        }
        for (std::size_t k = 0; k < pos_.size(); ++k) {
          if (poValue(k) != pr.golden[k]) {
            std::vector<char>& done = detected[job.comp];
            for (const std::uint32_t id : *job.faults) {
              if (done[id] != 0) continue;
              done[id] = 1;
              res.detected.insert(prefixes[job.comp] +
                                  cache[job.comp].faultSymbol(id));
            }
            break;
          }
        }
      }
      res.injections += jobs.size();
      res.detectedAfterPattern.push_back(res.detected.size());
      patternSpan.arg("injections", static_cast<double>(jobs.size()));
      patternSpan.arg("events", static_cast<double>(injectionEvents));
      patternSpan.arg("detected", static_cast<double>(res.detected.size()));
    }
  }

  // The controller is logically clean after every reset; physically release
  // its arena entries before it dies so a finished campaign leaves nothing
  // behind, then verify it.
  design_.clearSchedulerState(sim.scheduler().id());
  assert(design_.residualStateCount(sim.scheduler().slot()) == 0 &&
         "clearSchedulerState left live state behind");

  res.slotsLeased = registry.totalLeases() - leasesBefore;
  res.peakConcurrentSchedulers = registry.peakLeased();
  campaignSpan.arg("patterns", static_cast<double>(patterns.size()));
  campaignSpan.arg("faults", static_cast<double>(res.faultList.size()));
  campaignSpan.arg("detected", static_cast<double>(res.detected.size()));
  campaignSpan.arg("injections", static_cast<double>(res.injections));
  recordCampaignMetrics(res);
  return res;
}

CampaignResult VirtualFaultSimulator::runPacked(
    const std::vector<Word>& packedPatterns) {
  return run(unpackPatterns(packedPatterns, pis_.size()));
}

std::vector<std::vector<Word>> unpackPatterns(
    const std::vector<Word>& packedPatterns, std::size_t primaryInputs) {
  std::vector<std::vector<Word>> unpacked;
  unpacked.reserve(packedPatterns.size());
  for (const Word& w : packedPatterns) {
    if (w.width() != static_cast<int>(primaryInputs)) {
      throw std::invalid_argument("packed pattern width != primary inputs");
    }
    std::vector<Word> p;
    p.reserve(primaryInputs);
    for (std::size_t i = 0; i < primaryInputs; ++i) {
      p.push_back(Word::fromLogic(w.bit(static_cast<int>(i))));
    }
    unpacked.push_back(std::move(p));
  }
  return unpacked;
}

}  // namespace vcad::fault
