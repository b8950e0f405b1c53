#include "dataplane/salu.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <new>

namespace flymon::dataplane {

const char* to_string(StatefulOp op) noexcept {
  switch (op) {
    case StatefulOp::kNop: return "Nop";
    case StatefulOp::kCondAdd: return "Cond-ADD";
    case StatefulOp::kMax: return "MAX";
    case StatefulOp::kAndOr: return "AND-OR";
    case StatefulOp::kXor: return "XOR";
  }
  return "?";
}

RegisterArray::RegisterArray(std::uint32_t num_buckets, unsigned bit_width)
    : bit_width_(bit_width) {
  if (num_buckets == 0) throw std::invalid_argument("RegisterArray: zero buckets");
  if (bit_width == 0 || bit_width > 32)
    throw std::invalid_argument("RegisterArray: bit width must be 1..32");
  // Fresh anonymous pages are zero, and an all-zero std::atomic<uint32_t>
  // holds 0, so the cells need no initialising write.
  static_assert(std::atomic<std::uint32_t>::is_always_lock_free &&
                sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t bytes = std::size_t{num_buckets} * sizeof(std::uint32_t);
  const std::size_t data_len = (bytes + page - 1) / page * page;
  const std::size_t length = data_len + page;
  void* base = ::mmap(nullptr, length, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  auto* bytes_base = static_cast<std::byte*>(base);
  if (::mprotect(bytes_base + data_len, page, PROT_NONE) != 0) {
    ::munmap(base, length);
    throw std::bad_alloc();
  }
  cells_ = std::unique_ptr<std::atomic<std::uint32_t>[], Unmap>(
      reinterpret_cast<std::atomic<std::uint32_t>*>(bytes_base + data_len - bytes),
      Unmap{base, length});
  size_ = num_buckets;
  value_mask_ = bit_width >= 32 ? 0xFFFF'FFFFu : ((1u << bit_width) - 1u);
}

void RegisterArray::Unmap::operator()(std::atomic<std::uint32_t>*) const noexcept {
  ::munmap(base, length);
}

std::vector<std::uint32_t> RegisterArray::read_range(std::uint32_t begin,
                                                     std::uint32_t end) const {
  if (begin > end || end > size()) throw std::out_of_range("RegisterArray::read_range");
  std::vector<std::uint32_t> out;
  out.reserve(end - begin);
  for (std::uint32_t i = begin; i < end; ++i) {
    out.push_back(cells_[i].load(std::memory_order_relaxed));
  }
  return out;
}

void RegisterArray::clear_range(std::uint32_t begin, std::uint32_t end) {
  if (begin > end || end > size()) throw std::out_of_range("RegisterArray::clear_range");
  for (std::uint32_t i = begin; i < end; ++i) {
    cells_[i].store(0u, std::memory_order_relaxed);
  }
}

void Salu::preload(StatefulOp op) {
  if (has_op(op)) return;
  if (ops_.size() >= TofinoModel::kMaxRegisterActions)
    throw std::runtime_error("Salu: register-action slots exhausted (max 4)");
  ops_.push_back(op);
}

bool Salu::has_op(StatefulOp op) const noexcept {
  return std::find(ops_.begin(), ops_.end(), op) != ops_.end();
}

std::uint32_t Salu::execute(StatefulOp op, std::uint32_t addr, std::uint32_t p1,
                            std::uint32_t p2) {
  if (!has_op(op)) throw std::runtime_error("Salu: operation not pre-loaded");
  const std::uint32_t mask = reg_->value_mask();
  const std::uint32_t cur = reg_->read(addr);
  switch (op) {
    case StatefulOp::kNop:
      return cur;
    case StatefulOp::kCondAdd: {
      if (cur < p2) {
        // Saturating add within the register width.
        const std::uint64_t sum = std::uint64_t{cur} + p1;
        const std::uint32_t next =
            sum > mask ? mask : static_cast<std::uint32_t>(sum);
        reg_->write(addr, next);
        return next;
      }
      return 0;
    }
    case StatefulOp::kMax: {
      if (cur < (p1 & mask)) {
        reg_->write(addr, p1);
        return p1 & mask;
      }
      return 0;
    }
    case StatefulOp::kAndOr: {
      const std::uint32_t next = (p2 == 0) ? (cur & p1) : (cur | p1);
      reg_->write(addr, next);
      return next;
    }
    case StatefulOp::kXor: {
      const std::uint32_t next = cur ^ (p1 & mask);
      reg_->write(addr, next);
      return next;
    }
  }
  return 0;
}

}  // namespace flymon::dataplane
