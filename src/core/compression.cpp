#include "core/compression.hpp"

#include <stdexcept>

namespace flymon {

bool specs_disjoint(const FlowKeySpec& a, const FlowKeySpec& b) noexcept {
  // Prefix fields overlap whenever both are non-zero (both start at the
  // field's most-significant bit).
  return !((a.src_ip_bits && b.src_ip_bits) || (a.dst_ip_bits && b.dst_ip_bits) ||
           (a.src_port_bits && b.src_port_bits) || (a.dst_port_bits && b.dst_port_bits) ||
           (a.proto_bits && b.proto_bits) || (a.ts_bits && b.ts_bits));
}

FlowKeySpec specs_union(const FlowKeySpec& a, const FlowKeySpec& b) noexcept {
  FlowKeySpec u;
  u.src_ip_bits = a.src_ip_bits + b.src_ip_bits;
  u.dst_ip_bits = a.dst_ip_bits + b.dst_ip_bits;
  u.src_port_bits = a.src_port_bits + b.src_port_bits;
  u.dst_port_bits = a.dst_port_bits + b.dst_port_bits;
  u.proto_bits = a.proto_bits + b.proto_bits;
  u.ts_bits = a.ts_bits + b.ts_bits;
  return u;
}

CompressionStage::CompressionStage(unsigned num_units, unsigned first_unit_index) {
  if (num_units == 0) throw std::invalid_argument("CompressionStage: zero units");
  if (num_units > kMaxUnits) {
    throw std::invalid_argument("CompressionStage: more units than one stage has");
  }
  units_.reserve(num_units);
  for (unsigned i = 0; i < num_units; ++i) units_.emplace_back(first_unit_index + i);
  specs_.resize(num_units);
}

void CompressionStage::configure(unsigned i, const FlowKeySpec& spec) {
  units_.at(i).set_mask(spec.mask());
  specs_.at(i) = spec;
}

void CompressionStage::clear_unit(unsigned i) {
  units_.at(i).clear_mask();
  specs_.at(i).reset();
}

std::optional<unsigned> CompressionStage::free_unit() const noexcept {
  for (unsigned i = 0; i < specs_.size(); ++i) {
    if (!specs_[i]) return i;
  }
  return std::nullopt;
}

std::optional<CompressedKeySelector> CompressionStage::find_selector(
    const FlowKeySpec& spec) const {
  for (unsigned i = 0; i < specs_.size(); ++i) {
    if (specs_[i] && *specs_[i] == spec) {
      return CompressedKeySelector{static_cast<std::int8_t>(i), -1};
    }
  }
  // Binary XOR of two units (RMT supports one XOR per stage, paper §3.1.1).
  for (unsigned i = 0; i < specs_.size(); ++i) {
    if (!specs_[i]) continue;
    for (unsigned j = i + 1; j < specs_.size(); ++j) {
      if (!specs_[j]) continue;
      if (specs_disjoint(*specs_[i], *specs_[j]) &&
          specs_union(*specs_[i], *specs_[j]) == spec) {
        return CompressedKeySelector{static_cast<std::int8_t>(i),
                                     static_cast<std::int8_t>(j)};
      }
    }
  }
  return std::nullopt;
}

CompressionStage::UnitKeys CompressionStage::compute(
    const CandidateKey& key) const noexcept {
  UnitKeys out{};
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (specs_[i]) out[i] = units_[i].compute(key);
  }
  return out;
}

std::uint32_t CompressionStage::select(std::span<const std::uint32_t> unit_keys,
                                       const CompressedKeySelector& sel) noexcept {
  std::uint32_t v = sel.unit_a >= 0 ? unit_keys[static_cast<unsigned>(sel.unit_a)] : 0u;
  if (sel.unit_b >= 0) v ^= unit_keys[static_cast<unsigned>(sel.unit_b)];
  return v;
}

}  // namespace flymon
