// Power-of-two buddy allocation of CMU register space — the control-plane
// half of FlyMon's dynamic memory management (paper §3.3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace flymon {

/// A contiguous, power-of-two-aligned slice of one CMU's register.
struct MemoryPartition {
  std::uint32_t base = 0;
  std::uint32_t size = 0;  ///< power of two

  std::uint32_t end() const noexcept { return base + size; }
  friend bool operator==(const MemoryPartition&, const MemoryPartition&) = default;
};

/// Memory-allocation modes (paper §3.4): `accurate` rounds the request up to
/// the next power of two; `efficient` rounds to the nearest power of two.
enum class AllocMode : std::uint8_t { kAccurate, kEfficient };

/// Round a bucket request according to the mode.
std::uint32_t quantize_buckets(std::uint32_t requested, AllocMode mode) noexcept;

/// Classic buddy allocator over [0, total_buckets).  Only 2^n partitions are
/// supported, matching the shift/TCAM address-translation constraint.
class BuddyAllocator {
 public:
  /// `total` must be a power of two; `min_block` bounds fragmentation
  /// (paper: at most 32 partitions per CMU => min_block = total/32).
  explicit BuddyAllocator(std::uint32_t total, std::uint32_t min_block = 1);

  /// Allocate a block of exactly `size` buckets (power of two).
  std::optional<MemoryPartition> allocate(std::uint32_t size);

  /// Release a block previously returned by allocate (merges buddies).
  void release(const MemoryPartition& p);

  std::uint32_t total() const noexcept { return total_; }
  std::uint32_t free_buckets() const noexcept { return free_total_; }

  /// True iff `p` is exactly a block handed out by allocate() and not yet
  /// released — the ground truth the static verifier audits placements
  /// against.
  bool is_live(const MemoryPartition& p) const noexcept;
  /// Every live block, sorted by base address.
  std::vector<MemoryPartition> live_partitions() const;

 private:
  std::uint32_t total_;
  std::uint32_t min_block_;
  std::uint32_t free_total_;
  // free lists: size -> sorted bases
  std::map<std::uint32_t, std::vector<std::uint32_t>> free_;
  // live allocations: base -> size (exact blocks returned by allocate)
  std::map<std::uint32_t, std::uint32_t> live_blocks_;
};

}  // namespace flymon
