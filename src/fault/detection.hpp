// Detection tables: the dynamic, per-pattern testability information an IP
// provider returns during virtual fault simulation.
//
// For one input configuration of a component, the table lists every
// erroneous output pattern the component could produce under one of its
// internal (collapsed, symbolically named) stuck-at faults, together with
// the faults causing each error. The table is a local, IP-sensitive
// *parameter* (it derives from ParamValue), independently evaluable by the
// provider: it reveals input/output behaviour only, never structure.
#pragma once

#include <string>
#include <vector>

#include "core/estimation.hpp"
#include "fault/model.hpp"
#include "gate/packed_eval.hpp"
#include "net/serialize.hpp"

namespace vcad::fault {

class DetectionTable final : public ParamValue {
 public:
  struct Row {
    Word faultyOutput;
    std::vector<std::string> faults;  // symbolic names
  };

  DetectionTable() = default;
  DetectionTable(Word inputs, Word faultFreeOutput, std::vector<Row> rows)
      : inputs_(std::move(inputs)),
        faultFree_(std::move(faultFreeOutput)),
        rows_(std::move(rows)) {}

  const Word& inputs() const { return inputs_; }
  const Word& faultFreeOutput() const { return faultFree_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// The faulty output a given symbolic fault would produce, or nullptr when
  /// the fault is not excited by this input configuration.
  const Word* faultyOutputFor(const std::string& symbol) const;

  /// All faults producing a given erroneous output (empty when absent).
  std::vector<std::string> faultsFor(const Word& faultyOutput) const;

  std::size_t excitedFaultCount() const;

  std::string toString() const override;

  void serialize(net::ByteBuffer& buf) const;
  static DetectionTable deserialize(net::ByteBuffer& buf);

 private:
  Word inputs_;
  Word faultFree_;
  std::vector<Row> rows_;
};

/// Provider-side construction: simulate the component under every collapsed
/// fault for `inputs` and group the erroneous outputs. Deterministic row
/// order (by output pattern string).
DetectionTable buildDetectionTable(const gate::NetlistEvaluator& eval,
                                   const CollapsedFaults& collapsed,
                                   const Word& inputs);

/// Batched provider-side construction on the packed bit-parallel engine.
/// One builder serves one component: the collapsed faults' symbolic names
/// and their order by driver position are worked out once at construction,
/// so a request pays only for simulation. The builder is immutable and
/// keeps its scratch per call, so concurrent requests may share it.
///
/// Configurations are taken in chunks of up to 64, and each chunk fills the
/// 64 lanes one of two ways:
///   - pattern-parallel: one configuration per lane, one pass per fault;
///   - fault-parallel: one configuration broadcast to every lane, 64 faults
///     (one per lane, in driver order) per pass.
/// Either way each pass re-evaluates only the gates from its earliest fault
/// driver onwards, over the golden run. The tables are byte-identical to
/// buildDetectionTable per configuration, which stays the reference oracle.
class DetectionTableBuilder {
 public:
  enum class Packing { PatternParallel, FaultParallel };

  /// `netlist` must outlive the builder.
  DetectionTableBuilder(const gate::Netlist& netlist,
                        const CollapsedFaults& collapsed);

  /// Symbolic names of the collapsed faults, in representative order: the
  /// component's published fault list.
  const std::vector<std::string>& symbols() const { return symbols_; }

  /// The packing that takes fewer faulty passes for a chunk of `lanes`
  /// configurations against `faults` collapsed faults: fault-parallel when
  /// lanes * ceil(faults / 64) < faults.
  static Packing packingFor(std::size_t lanes, std::size_t faults);

  /// One table per configuration, in order; every chunk takes packingFor's
  /// packing.
  std::vector<DetectionTable> build(const std::vector<Word>& inputs) const;

  /// The same tables with every chunk forced to `packing` (differential
  /// tests and the packing sweep of bench_packed_eval).
  std::vector<DetectionTable> build(const std::vector<Word>& inputs,
                                    Packing packing) const;

 private:
  std::vector<DetectionTable> buildChunks(const std::vector<Word>& inputs,
                                          const Packing* forced) const;

  gate::PackedEvaluator packed_;
  std::vector<std::string> symbols_;
  // Faults sorted by driver position, and the symbol index of each.
  std::vector<gate::LaneForce> order_;
  std::vector<std::uint32_t> orderSymbol_;
};

}  // namespace vcad::fault
