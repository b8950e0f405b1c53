// Symbolic 32-bit words over GF(2) affine bit expressions — the abstract
// domain of the translation validator (translate.hpp).
//
// Every pipeline value the compiled and interpreted paths derive a register
// address or parameter from is built from hash-lane words by XOR, AND with
// a constant mask, and logical right shift.  Each of those operators is
// bit-linear over GF(2), so a bit is represented *exactly* as
//
//     constant  XOR  (xor of symbolic input bits)
//
// where a symbolic input bit is `lane_id * 32 + bit` for an opaque hash
// lane (interned by hash-unit identity + configured mask, see
// translate.cpp).  Two SymWords compare equal iff the concrete expressions
// agree on every input valuation — no approximation, no false equalities.
//
// Storage is a GF(2) bit-matrix per lane: row i of a lane is the set of
// that lane's bits XORed into output bit i.  Lanes are kept sorted by id
// with all-zero lanes dropped, so the representation stays canonical.  The
// first kInlineLanes lanes live inside the word; a word over more lanes
// spills to the heap, so any number of variables stays exact.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace flymon::verify::translate {

/// One bit as a GF(2) affine form: `constant ^ XOR(vars)`.  `vars` is a
/// sorted, duplicate-free set of symbolic input-bit ids (XOR is idempotent
/// on equal terms, so a set is canonical).  An inspection view built on
/// demand by SymWord::bit.
struct SymBit {
  bool constant = false;
  std::vector<std::uint32_t> vars;

  bool is_constant() const noexcept { return vars.empty(); }
  friend bool operator==(const SymBit&, const SymBit&) = default;
};

/// A 32-bit word of GF(2) affine bits, bit 0 = LSB.
class SymWord {
 public:
  /// All bits constant: the word `v`.
  static SymWord constant(std::uint32_t v);
  /// Bit i = the single symbolic variable `lane_id * 32 + i`.
  static SymWord lane(std::uint32_t lane_id);

  /// Bitwise XOR (GF(2) addition, per bit).
  SymWord operator^(const SymWord& o) const;
  /// AND with a constant mask: masked-out bits collapse to constant 0.
  SymWord operator&(std::uint32_t mask) const;
  /// Logical right shift by `n` (n >= 32 yields constant 0).
  SymWord operator>>(unsigned n) const;

  /// Bit `i` as an explicit affine form (allocates; for inspection).
  SymBit bit(unsigned i) const;

  /// Index of the lowest bit where the two words differ, or -1 when
  /// equivalent.  Equality here is semantic equality of the concrete
  /// functions (the representation is canonical).
  static int first_divergent_bit(const SymWord& a, const SymWord& b);

  friend bool operator==(const SymWord& a, const SymWord& b) {
    return first_divergent_bit(a, b) < 0;
  }

  /// Compact rendering for diagnostics: the constant in hex, then each
  /// lane bit XORed into an output bit, lane ids and bit indices in
  /// decimal, e.g. "0x0 ^ {L1.b10->b6}" (lane 1, bit 10 -> bit 6).
  std::string to_string() const;

 private:
  /// One lane's contribution: rows[i] = the lane bits XORed into bit i.
  struct Lane {
    std::uint32_t id = 0;
    std::array<std::uint32_t, 32> rows{};

    bool zero() const noexcept;
  };
  static constexpr std::uint32_t kInlineLanes = 2;

  std::span<const Lane> lanes() const noexcept;
  /// Append a lane (ids ascending); an all-zero lane is dropped.
  void push(const Lane& lane);
  /// Walk two words' id-sorted lanes in step: f(x, y) per id, with nullptr
  /// for the side that lacks it.
  template <class F>
  static void zip(const SymWord& a, const SymWord& b, F f);

  std::uint32_t constant_ = 0;
  std::uint32_t count_ = 0;
  std::array<Lane, kInlineLanes> inline_{};
  std::vector<Lane> spill_;  ///< every lane once count_ > kInlineLanes
};

}  // namespace flymon::verify::translate
