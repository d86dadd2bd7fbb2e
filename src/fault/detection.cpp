#include "fault/detection.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>

#include "obs/metrics.hpp"

namespace vcad::fault {

const Word* DetectionTable::faultyOutputFor(const std::string& symbol) const {
  for (const Row& row : rows_) {
    if (std::find(row.faults.begin(), row.faults.end(), symbol) !=
        row.faults.end()) {
      return &row.faultyOutput;
    }
  }
  return nullptr;
}

std::vector<std::string> DetectionTable::faultsFor(
    const Word& faultyOutput) const {
  for (const Row& row : rows_) {
    if (row.faultyOutput == faultyOutput) return row.faults;
  }
  return {};
}

std::size_t DetectionTable::excitedFaultCount() const {
  std::size_t n = 0;
  for (const Row& row : rows_) n += row.faults.size();
  return n;
}

std::string DetectionTable::toString() const {
  std::string s = "DetectionTable(in=" + inputs_.toString() +
                  ", fault-free=" + faultFree_.toString() + ")";
  for (const Row& row : rows_) {
    s += "\n  " + row.faultyOutput.toString() + " <- {";
    for (std::size_t i = 0; i < row.faults.size(); ++i) {
      if (i != 0) s += ", ";
      s += row.faults[i];
    }
    s += "}";
  }
  return s;
}

void DetectionTable::serialize(net::ByteBuffer& buf) const {
  buf.writeWord(inputs_);
  buf.writeWord(faultFree_);
  buf.writeU32(static_cast<std::uint32_t>(rows_.size()));
  for (const Row& row : rows_) {
    buf.writeWord(row.faultyOutput);
    buf.writeU32(static_cast<std::uint32_t>(row.faults.size()));
    for (const std::string& f : row.faults) buf.writeString(f);
  }
}

DetectionTable DetectionTable::deserialize(net::ByteBuffer& buf) {
  const Word inputs = buf.readWord();
  const Word faultFree = buf.readWord();
  const std::uint32_t nRows = buf.readU32();
  std::vector<Row> rows;
  rows.reserve(nRows);
  for (std::uint32_t r = 0; r < nRows; ++r) {
    Row row;
    row.faultyOutput = buf.readWord();
    const std::uint32_t nFaults = buf.readU32();
    for (std::uint32_t i = 0; i < nFaults; ++i) {
      row.faults.push_back(buf.readString());
    }
    rows.push_back(std::move(row));
  }
  return DetectionTable(inputs, faultFree, std::move(rows));
}

DetectionTable buildDetectionTable(const gate::NetlistEvaluator& eval,
                                   const CollapsedFaults& collapsed,
                                   const Word& inputs) {
  const Word faultFree = eval.evalOutputs(inputs);
  std::map<std::string, DetectionTable::Row> byOutput;
  const Netlist& nl = eval.netlist();
  for (const StuckFault& f : collapsed.representatives) {
    const Word out = eval.evalOutputs(inputs, f);
    if (out == faultFree) continue;  // fault not excited by this pattern
    auto& row = byOutput[out.toString()];
    row.faultyOutput = out;
    row.faults.push_back(symbolOf(nl, f));
  }
  std::vector<DetectionTable::Row> rows;
  rows.reserve(byOutput.size());
  for (auto& [key, row] : byOutput) {
    std::sort(row.faults.begin(), row.faults.end());
    rows.push_back(std::move(row));
  }
  return DetectionTable(inputs, faultFree, std::move(rows));
}

namespace {

using gate::LaneForce;
using gate::LanePlanes;
using gate::PackedEvaluator;

constexpr std::size_t kLanes = PackedEvaluator::kLanes;

/// Interned obs ids for the packed table builder's lane use.
struct TableMetrics {
  obs::Registry::MetricId passes, lanesUsed;

  static const TableMetrics& get() {
    static const TableMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return TableMetrics{r.counter("fault.table.passes"),
                          r.counter("fault.table.lanes_used")};
    }();
    return m;
  }
};

/// Per-call scratch of the builder.
struct Scratch {
  std::vector<LanePlanes> planes;     // the run being re-evaluated
  std::vector<LanePlanes> goldenOut;  // golden primary-output planes
  std::vector<LanePlanes> savedPi;    // golden planes of forced PI nets
  std::vector<LaneForce> forces;
  std::uint64_t passes = 0;
  std::uint64_t lanesUsed = 0;
};

/// Configuration `lane` of `block` broadcast to every lane.
PackedEvaluator::InputBlock broadcastLane(
    const PackedEvaluator::InputBlock& block, int lane) {
  const auto spread = [lane](std::uint64_t plane) {
    return 0ULL - ((plane >> lane) & 1ULL);
  };
  PackedEvaluator::InputBlock out;
  out.lanes = PackedEvaluator::kLanes;
  out.pi.reserve(block.pi.size());
  for (const LanePlanes& p : block.pi) {
    out.pi.push_back({spread(p.val), spread(p.known), spread(p.z)});
  }
  return out;
}

/// Injects `order`'s faults into the golden run held in s.planes: one fault
/// per pass in all lanes (pattern-parallel, `lanes` configurations), or 64
/// faults per pass, fault j in lane j (fault-parallel). Passes run in
/// descending start position, so each one re-evaluates only [start, end):
/// its gates overwrite their own outputs and every net before start is
/// still golden. Primary-input forces are undone after their pass, since no
/// gate rewrites those nets. record(first, diff) sees the pass's first fault
/// index and its output diff mask while s.planes holds the faulty run.
template <typename Record>
void sweepFaults(const PackedEvaluator& packed,
                 const std::vector<LaneForce>& order, bool faultParallel,
                 int lanes, Scratch& s, Record&& record) {
  packed.outputPlanes(s.planes, s.goldenOut);
  const std::size_t group = faultParallel ? kLanes : 1;
  for (std::size_t g = (order.size() + group - 1) / group; g-- > 0;) {
    const std::size_t first = g * group;
    const std::size_t count = std::min(group, order.size() - first);
    s.forces.assign(order.begin() + static_cast<std::ptrdiff_t>(first),
                    order.begin() + static_cast<std::ptrdiff_t>(first + count));
    if (faultParallel) {
      for (std::size_t j = 0; j < count; ++j) s.forces[j].lanes = 1ULL << j;
    }
    s.savedPi.clear();
    for (const LaneForce& f : s.forces) {
      if (f.pos >= 0) break;
      s.savedPi.push_back(s.planes[static_cast<std::size_t>(f.net)]);
    }
    packed.evaluateFrom(s.planes, std::max(s.forces.front().pos, 0),
                        s.forces);
    const int used = faultParallel ? static_cast<int>(count) : lanes;
    record(first, packed.outputDiffMaskFrom(s.goldenOut, s.planes, used));
    for (std::size_t j = 0; j < s.savedPi.size(); ++j) {
      s.planes[static_cast<std::size_t>(s.forces[j].net)] = s.savedPi[j];
    }
    ++s.passes;
    s.lanesUsed += static_cast<std::uint64_t>(used);
  }
}

}  // namespace

DetectionTableBuilder::DetectionTableBuilder(const gate::Netlist& netlist,
                                             const CollapsedFaults& collapsed)
    : packed_(netlist) {
  const auto& reps = collapsed.representatives;
  symbols_.reserve(reps.size());
  for (const StuckFault& f : reps) symbols_.push_back(symbolOf(netlist, f));
  orderSymbol_.resize(reps.size());
  std::iota(orderSymbol_.begin(), orderSymbol_.end(), 0u);
  std::stable_sort(orderSymbol_.begin(), orderSymbol_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return packed_.driverPosition(reps[a].net) <
                            packed_.driverPosition(reps[b].net);
                   });
  order_.reserve(reps.size());
  for (std::uint32_t i : orderSymbol_) {
    order_.push_back(packed_.forceOf(reps[i]));
  }
}

DetectionTableBuilder::Packing DetectionTableBuilder::packingFor(
    std::size_t lanes, std::size_t faults) {
  return lanes * ((faults + kLanes - 1) / kLanes) < faults
             ? Packing::FaultParallel
             : Packing::PatternParallel;
}

std::vector<DetectionTable> DetectionTableBuilder::build(
    const std::vector<Word>& inputs) const {
  return buildChunks(inputs, nullptr);
}

std::vector<DetectionTable> DetectionTableBuilder::build(
    const std::vector<Word>& inputs, Packing packing) const {
  return buildChunks(inputs, &packing);
}

std::vector<DetectionTable> DetectionTableBuilder::buildChunks(
    const std::vector<Word>& inputs, const Packing* forced) const {
  std::vector<DetectionTable> tables;
  tables.reserve(inputs.size());
  Scratch s;
  std::vector<std::map<std::string, DetectionTable::Row>> byOutput;
  std::vector<Word> faultFree;
  // Table `table` gains the fault order_[fault], whose output shows in
  // `lane` of the faulty run.
  const auto addRow = [&](std::size_t table, int lane, std::size_t fault) {
    const Word out = packed_.outputsOf(s.planes, lane);
    auto& row = byOutput[table][out.toString()];
    row.faultyOutput = out;
    row.faults.push_back(symbols_[orderSymbol_[fault]]);
  };
  for (std::size_t base = 0; base < inputs.size(); base += kLanes) {
    const std::size_t lanes = std::min(kLanes, inputs.size() - base);
    const Packing packing =
        forced != nullptr ? *forced : packingFor(lanes, order_.size());
    const auto block = packed_.pack(inputs, base, lanes);
    byOutput.assign(lanes, {});
    faultFree.clear();
    if (packing == Packing::PatternParallel) {
      packed_.evaluate(block, s.planes);
      for (std::size_t c = 0; c < lanes; ++c) {
        faultFree.push_back(packed_.outputsOf(s.planes, static_cast<int>(c)));
      }
      sweepFaults(packed_, order_, false, static_cast<int>(lanes), s,
                  [&](std::size_t first, std::uint64_t diff) {
                    for (; diff != 0; diff &= diff - 1) {
                      const int lane = std::countr_zero(diff);
                      addRow(static_cast<std::size_t>(lane), lane, first);
                    }
                  });
    } else {
      for (std::size_t c = 0; c < lanes; ++c) {
        packed_.evaluate(broadcastLane(block, static_cast<int>(c)), s.planes);
        faultFree.push_back(packed_.outputsOf(s.planes, 0));
        sweepFaults(packed_, order_, true, PackedEvaluator::kLanes, s,
                    [&](std::size_t first, std::uint64_t diff) {
                      for (; diff != 0; diff &= diff - 1) {
                        const int lane = std::countr_zero(diff);
                        addRow(c, lane,
                               first + static_cast<std::size_t>(lane));
                      }
                    });
      }
    }
    for (std::size_t c = 0; c < lanes; ++c) {
      std::vector<DetectionTable::Row> rows;
      rows.reserve(byOutput[c].size());
      for (auto& [key, row] : byOutput[c]) {
        std::sort(row.faults.begin(), row.faults.end());
        rows.push_back(std::move(row));
      }
      tables.emplace_back(inputs[base + c], std::move(faultFree[c]),
                          std::move(rows));
    }
  }
  obs::Registry& reg = obs::Registry::global();
  reg.add(TableMetrics::get().passes, s.passes);
  reg.add(TableMetrics::get().lanesUsed, s.lanesUsed);
  return tables;
}

}  // namespace vcad::fault
