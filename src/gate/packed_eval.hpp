// PackedEvaluator: compiled, levelized, bit-parallel netlist evaluation —
// 64 independent patterns per pass (classic PPSFP-style pattern
// parallelism).
//
// The netlist is flattened once into cache-friendly CSR arrays (gate opcode,
// input-net index spans, output net, all in topological order). Four-valued
// logic is encoded as two 64-bit planes per net — `val` (the value bit,
// canonical 0 wherever unknown) and `known` (strong 0/1) — so every gate
// evaluates all 64 pattern lanes with a handful of branch-free bitwise
// operations. A third `z` plane records high impedance; only primary inputs
// can carry it (every gate operator normalizes Z to X, exactly like the
// scalar 4-valued algebra in core/logic.cpp), so the gate loop never touches
// it. Stuck-at injection forces a net's planes right after its driver
// evaluates (or before the gate loop for primary-input faults), which makes
// one packed pass equivalent to 64 scalar NetlistEvaluator::evaluate calls
// with the same fault — bit-identical after decoding. A force carries a lane
// mask, so one pass can equally inject 64 different faults, one per lane,
// against a configuration broadcast to every lane (fault parallelism).
//
// There is one gate loop, evaluateFrom(): it re-evaluates the gates from a
// compiled position onwards over planes that already hold a run. Gates
// before that position keep their values, so a fault campaign evaluates the
// golden run once and then only the suffix from each fault's driver.
//
// Two-plane forms (per lane; one = known & val, zero = known & ~val):
//   AND : one = AND over inputs' one;  zero = OR  over inputs' zero
//   OR  : one = OR  over inputs' one;  zero = AND over inputs' zero
//   XOR : known = aK & bK;             val = (aV ^ bV) & known
//   NOT : known = aK;                  val = zero(a)
// with known = one | zero, val = one for AND/OR, and the inverting variants
// (NAND/NOR/XNOR) swapping val for its complement within known.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/word.hpp"
#include "gate/netlist.hpp"

namespace vcad::gate {

/// One 64-lane slice of a net: bit k of each plane describes the net's
/// 4-valued value under pattern lane k.
struct LanePlanes {
  std::uint64_t val = 0;    // value bit; canonical 0 where !known
  std::uint64_t known = 0;  // lane holds a strong 0/1
  std::uint64_t z = 0;      // lane is high-impedance (primary inputs only)
};

/// A stuck-at fault injected into the lanes set in `lanes`. `pos` is the
/// compiled position of the net's driver (PackedEvaluator::driverPosition,
/// -1 for primary inputs and undriven nets).
struct LaneForce {
  std::int32_t pos = -1;
  NetId net = 0;
  Logic stuck = Logic::L0;
  std::uint64_t lanes = ~0ULL;
};

class PackedEvaluator {
 public:
  /// Patterns evaluated per pass — one per bit of a machine word.
  static constexpr int kLanes = 64;

  explicit PackedEvaluator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  /// A block of up to kLanes input patterns, transposed into one LanePlanes
  /// per primary input. Pack once, evaluate many times (fault campaigns
  /// reuse the same block for the fault-free pass and every injection).
  struct InputBlock {
    std::vector<LanePlanes> pi;  // per primary input, PI order
    int lanes = 0;
  };

  /// Transposes patterns[begin, begin+lanes) (each one primary-input word)
  /// into an InputBlock. Throws when lanes > kLanes or widths mismatch.
  InputBlock pack(const std::vector<Word>& patterns, std::size_t begin,
                  std::size_t lanes) const;

  /// Evaluates every lane of `in` in one pass; `planes` is resized to
  /// netCount(). Lanes >= in.lanes decode as X and must be ignored. Loads
  /// the primary inputs, then runs evaluateFrom(planes, 0, fault in every
  /// lane).
  void evaluate(const InputBlock& in, std::vector<LanePlanes>& planes,
                const StuckFault* fault = nullptr) const;

  /// Re-evaluates the gates at compiled positions [fromPos, end) over
  /// `planes` (netCount() entries holding a run), applying `forces`, which
  /// must be sorted by pos. A force whose driver lies before fromPos (every
  /// primary-input force) is applied before the loop, and no gate of the
  /// pass overwrites it; the others are applied right after their driver
  /// evaluates. Nets driven before fromPos are left untouched.
  void evaluateFrom(std::vector<LanePlanes>& planes, int fromPos,
                    std::span<const LaneForce> forces) const;

  /// Compiled position of the gate driving `net`, or -1 when no gate does
  /// (primary inputs, undriven nets).
  std::int32_t driverPosition(NetId net) const {
    return driverPos_.at(static_cast<std::size_t>(net));
  }

  /// `fault` injected into every lane.
  LaneForce forceOf(const StuckFault& fault) const {
    return LaneForce{driverPosition(fault.net), fault.net, fault.stuck};
  }

  /// Decodes one lane of one net (the packed analogue of the scalar
  /// evaluator's net-value vector entry).
  Logic netValue(const std::vector<LanePlanes>& planes, NetId net,
                 int lane) const;

  /// Decodes one lane's primary-output word.
  Word outputsOf(const std::vector<LanePlanes>& planes, int lane) const;

  /// Lanes (bit k = lane k) where the two runs' primary outputs differ —
  /// exactly Word::operator!= applied per lane, limited to the low `lanes`
  /// bits.
  std::uint64_t outputDiffMask(const std::vector<LanePlanes>& a,
                               const std::vector<LanePlanes>& b,
                               int lanes) const;

  /// The primary-output planes of a run, in PO order: the golden side of a
  /// diff kept aside while the run's planes are reused for faulty passes.
  void outputPlanes(const std::vector<LanePlanes>& planes,
                    std::vector<LanePlanes>& outputs) const;

  /// outputDiffMask against primary-output planes saved by outputPlanes().
  std::uint64_t outputDiffMaskFrom(const std::vector<LanePlanes>& outputs,
                                   const std::vector<LanePlanes>& planes,
                                   int lanes) const;

 private:
  const Netlist* nl_;
  // Compiled CSR form; index g runs over gates in topological order.
  std::vector<std::uint8_t> op_;       // GateType
  std::vector<std::int32_t> outNet_;
  std::vector<std::int32_t> inBegin_;  // size gates+1; spans into inNets_
  std::vector<std::int32_t> inNets_;
  std::vector<std::int32_t> driverPos_;  // per net: compiled index of its
                                         // driver, or -1 (primary input)
};

}  // namespace vcad::gate
