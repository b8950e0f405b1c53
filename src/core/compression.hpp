// The compression stage of a CMU Group (paper §3.1.1, Fig 4): a bank of
// maskable hash units producing 32-bit compressed keys, shared by all CMUs
// of the group.  Keys can additionally be composed by XOR of two units,
// giving k(k+1)/2 selectable keys from k units.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dataplane/hash_unit.hpp"
#include "dataplane/tofino_model.hpp"
#include "packet/flowkey.hpp"

namespace flymon {

/// Selects a compressed key: one unit, or the XOR of two units.
struct CompressedKeySelector {
  std::int8_t unit_a = -1;
  std::int8_t unit_b = -1;  ///< -1 = no second unit

  bool valid() const noexcept { return unit_a >= 0; }
  friend bool operator==(const CompressedKeySelector&, const CompressedKeySelector&) = default;
};

/// A bit slice of a 32-bit compressed key: CMUs of one group use different
/// sub-parts of the same compressed key to emulate independent hashes
/// (paper §3.2, inspired by SketchLib).
struct KeySlice {
  std::uint8_t offset = 0;  ///< low bit position
  std::uint8_t width = 32;  ///< number of bits (<= 32)

  std::uint32_t apply(std::uint32_t key) const noexcept {
    const std::uint32_t shifted = key >> offset;
    return width >= 32 ? shifted : (shifted & ((1u << width) - 1u));
  }
  friend bool operator==(const KeySlice&, const KeySlice&) = default;
};

/// True iff the two key specs select disjoint field bits.
bool specs_disjoint(const FlowKeySpec& a, const FlowKeySpec& b) noexcept;

/// Field-wise union of two disjoint specs.
FlowKeySpec specs_union(const FlowKeySpec& a, const FlowKeySpec& b) noexcept;

class CompressionStage {
 public:
  /// A stage lives in one MAU stage, so it has at most that stage's hash
  /// distribution units; this bound sizes the fixed key buffer below.
  static constexpr unsigned kMaxUnits =
      dataplane::TofinoModel::kHashDistUnitsPerStage;
  /// Every unit's compressed key, unconfigured and absent units reading 0.
  using UnitKeys = std::array<std::uint32_t, kMaxUnits>;

  /// `num_units` (1..kMaxUnits) physical hash units; `first_unit_index`
  /// diversifies the CRC parameterisation across groups.
  CompressionStage(unsigned num_units, unsigned first_unit_index);

  unsigned num_units() const noexcept { return static_cast<unsigned>(units_.size()); }

  /// Install a dynamic-hash mask on unit `i` so it compresses `spec`.
  /// Counts as one hash-mask runtime rule.
  void configure(unsigned i, const FlowKeySpec& spec);
  void clear_unit(unsigned i);
  const std::optional<FlowKeySpec>& spec_of(unsigned i) const { return specs_.at(i); }

  /// Physical hash unit `i`.  The plan compiler copies configured units
  /// into the ExecPlan's hash slots (HashUnit is a small value type).
  const dataplane::HashUnit& unit(unsigned i) const { return units_.at(i); }

  /// First unconfigured unit, if any.
  std::optional<unsigned> free_unit() const noexcept;

  /// Find a selector producing `spec` from the current configuration:
  /// a unit configured exactly as `spec`, or the XOR of two units whose
  /// disjoint specs union to `spec`.
  std::optional<CompressedKeySelector> find_selector(const FlowKeySpec& spec) const;

  /// Per-packet evaluation of every configured unit.
  UnitKeys compute(const CandidateKey& key) const noexcept;

  /// Resolve a selector against computed unit outputs.
  static std::uint32_t select(std::span<const std::uint32_t> unit_keys,
                              const CompressedKeySelector& sel) noexcept;

 private:
  std::vector<dataplane::HashUnit> units_;
  std::vector<std::optional<FlowKeySpec>> specs_;
};

}  // namespace flymon
