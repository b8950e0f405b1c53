#include "core/memory_partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bits.hpp"

namespace flymon {

std::uint32_t quantize_buckets(std::uint32_t requested, AllocMode mode) noexcept {
  if (requested <= 1) return 1;
  const std::uint32_t up = static_cast<std::uint32_t>(pow2_ceil(requested));
  if (mode == AllocMode::kAccurate) return up;
  const std::uint32_t down = static_cast<std::uint32_t>(pow2_floor(requested));
  // Efficient mode: nearest power of two.
  return (requested - down) <= (up - requested) ? down : up;
}

BuddyAllocator::BuddyAllocator(std::uint32_t total, std::uint32_t min_block)
    : total_(total), min_block_(min_block), free_total_(total) {
  if (!is_pow2(total)) throw std::invalid_argument("BuddyAllocator: total not power of 2");
  if (!is_pow2(min_block) || min_block > total)
    throw std::invalid_argument("BuddyAllocator: bad min_block");
  free_[total].push_back(0);
}

std::optional<MemoryPartition> BuddyAllocator::allocate(std::uint32_t size) {
  if (size == 0 || !is_pow2(size) || size > total_) return std::nullopt;
  size = std::max(size, min_block_);

  // Find the smallest free block >= size.
  auto it = free_.lower_bound(size);
  while (it != free_.end() && it->second.empty()) ++it;
  if (it == free_.end()) return std::nullopt;

  std::uint32_t block_size = it->first;
  std::uint32_t base = it->second.back();
  it->second.pop_back();

  // Split down to the requested size, returning buddies to the free lists.
  while (block_size > size) {
    block_size /= 2;
    free_[block_size].push_back(base + block_size);
  }
  free_total_ -= size;
  live_blocks_.emplace(base, size);
  return MemoryPartition{base, size};
}

void BuddyAllocator::release(const MemoryPartition& p) {
  if (p.size == 0 || !is_pow2(p.size) || p.end() > total_)
    throw std::invalid_argument("BuddyAllocator::release: bad partition");
  // Guard against double release: the block must not already sit (whole or
  // as part of a larger free block) in a free list.
  for (const auto& [size, bases] : free_) {
    for (std::uint32_t b : bases) {
      if (p.base >= b && p.end() <= b + size)
        throw std::logic_error("BuddyAllocator::release: double release");
    }
  }
  // Only exact blocks previously handed out by allocate() may come back.
  const auto lit = live_blocks_.find(p.base);
  if (lit == live_blocks_.end() || lit->second != p.size)
    throw std::logic_error("BuddyAllocator::release: not a live block");
  live_blocks_.erase(lit);
  std::uint32_t base = p.base;
  std::uint32_t size = p.size;
  // Coalesce with the buddy while it is free.
  while (size < total_) {
    const std::uint32_t buddy = base ^ size;
    auto& list = free_[size];
    const auto bit = std::find(list.begin(), list.end(), buddy);
    if (bit == list.end()) break;
    list.erase(bit);
    base = std::min(base, buddy);
    size *= 2;
  }
  free_[size].push_back(base);
  free_total_ += p.size;
}

bool BuddyAllocator::is_live(const MemoryPartition& p) const noexcept {
  const auto it = live_blocks_.find(p.base);
  return it != live_blocks_.end() && it->second == p.size;
}

std::vector<MemoryPartition> BuddyAllocator::live_partitions() const {
  std::vector<MemoryPartition> out;
  out.reserve(live_blocks_.size());
  for (const auto& [base, size] : live_blocks_) out.push_back({base, size});
  return out;
}

}  // namespace flymon
