// Word: a fixed-width bit vector value exchanged between modules.
//
// Words are the payload of signal events on the backplane. They support both
// the word-level (RTL) abstraction, where a word is usually fully known and
// read as an unsigned integer, and the gate-level abstraction, where each bit
// is an independent 4-valued Logic scalar. Widths up to 64 bits are
// supported, which covers the designs used throughout the paper (16-bit
// operands, 32-bit products).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/logic.hpp"

namespace vcad {

class Word {
 public:
  static constexpr int kMaxWidth = 64;

  /// Default: zero-width word (no payload).
  Word() = default;

  /// A word of `width` bits, all X.
  explicit Word(int width);

  /// A fully-known word holding the low `width` bits of `value`.
  static Word fromUint(int width, std::uint64_t value);

  /// A single-bit word.
  static Word fromLogic(Logic v);

  /// Parses a string like "10X1" (MSB first). Throws on bad chars.
  static Word fromString(const std::string& s);

  int width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// True iff every bit is a strong 0/1.
  bool isFullyKnown() const;

  /// True iff every bit is X (no strong bit, no Z). A zero-width word is
  /// all-X.
  bool isAllX() const { return known_ == 0 && zmask_ == 0; }

  /// Unsigned integer value. Precondition: isFullyKnown().
  std::uint64_t toUint() const;

  Logic bit(int i) const;
  void setBit(int i, Logic v);

  /// Single-bit convenience accessors (precondition: width() == 1).
  Logic scalar() const { return bit(0); }

  /// Returns a copy with every bit forced to X.
  static Word allX(int width) { return Word(width); }

  /// Hamming distance over known bits; X/Z positions in either word count
  /// as a toggle (pessimistic switching estimate).
  static int toggleCount(const Word& a, const Word& b);

  /// Concatenates: result = {hi, lo} with lo occupying the low bits.
  static Word concat(const Word& hi, const Word& lo);

  /// Extracts bits [lsb, lsb+len).
  Word slice(int lsb, int len) const;

  bool operator==(const Word& other) const;
  bool operator!=(const Word& other) const { return !(*this == other); }

  /// MSB-first display form, e.g. "1X01".
  std::string toString() const;

  // Low-level plane accessors for bit-parallel engines (bit i describes the
  // word's bit i). The value plane is canonical: 0 wherever the bit is not
  // a strong 0/1.
  std::uint64_t valuePlane() const { return bits_; }
  std::uint64_t knownPlane() const { return known_; }
  std::uint64_t zPlane() const { return zmask_; }

 private:
  std::uint64_t bits_ = 0;   // bit i value (meaningful when known)
  std::uint64_t known_ = 0;  // bit i is strong 0/1
  std::uint64_t zmask_ = 0;  // bit i is Z (only meaningful when !known)
  int width_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Word& w);

/// Hash for unordered containers keyed by Word; consistent with ==.
struct WordHash {
  std::size_t operator()(const Word& w) const noexcept;
};

}  // namespace vcad
