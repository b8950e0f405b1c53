// Stateful ALU + bound register array (a Tofino "register").
//
// An RMT register performs at most one memory access per packet, executing
// one of a small number of pre-loaded register actions (at most 4 on
// Tofino).  FlyMon's reduced operation set (paper Appendix A) consists of
// Cond-ADD, MAX and AND-OR; one slot stays reserved for future attributes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "dataplane/tofino_model.hpp"

namespace flymon::dataplane {

/// The reduced stateful operation set.  kXor occupies the reserved fourth
/// action slot when an Odd-Sketch style task is deployed (paper §6,
/// "Expressiveness of FlyMon").
enum class StatefulOp : std::uint8_t {
  kNop = 0,      ///< read-only access (returns the bucket)
  kCondAdd,      ///< if (reg < p2) reg += p1, return reg; else return 0
  kMax,          ///< if (reg < p1) reg  = p1, return reg; else return 0
  kAndOr,        ///< if (p2 == 0) reg &= p1 else reg |= p1; return reg
  kXor,          ///< reg ^= p1; return reg (Odd Sketch toggle)
};

const char* to_string(StatefulOp op) noexcept;

/// Fixed-size stateful memory with uniform bucket width.  Size and width
/// cannot change at runtime (the constraint that motivates FlyMon's address
/// translation); only the contents can be read/cleared by the control plane.
///
/// Cells are relaxed atomics: the hardware register keeps serving packets
/// while the control plane reads, clears and repartitions it, and the
/// software model mirrors that — a processing thread and a reconfiguring
/// control thread may touch the same cells without a data race.  Relaxed
/// ordering is sufficient because cross-thread visibility is sequenced by
/// the ExecPlan publish (release store / acquire load of the plan pointer).
///
/// Each bank is its own anonymous private mapping, so construction writes
/// nothing: unwritten cells read as the kernel's zero page, and a page
/// becomes resident only when something first writes it.  The cells end
/// flush against a trailing PROT_NONE guard page, so touching
/// data()[size()] faults in every build (AddressSanitizer does not see
/// mapped memory).
class RegisterArray {
 public:
  explicit RegisterArray(std::uint32_t num_buckets,
                         unsigned bit_width = TofinoModel::kRegisterBitWidth);

  RegisterArray(RegisterArray&&) noexcept = default;
  RegisterArray& operator=(RegisterArray&&) noexcept = default;
  RegisterArray(const RegisterArray&) = delete;
  RegisterArray& operator=(const RegisterArray&) = delete;

  std::uint32_t size() const noexcept { return size_; }
  unsigned bit_width() const noexcept { return bit_width_; }
  std::uint32_t value_mask() const noexcept { return value_mask_; }

  std::uint32_t read(std::uint32_t addr) const {
    check(addr);
    return cells_[addr].load(std::memory_order_relaxed);
  }
  void write(std::uint32_t addr, std::uint32_t v) {
    check(addr);
    cells_[addr].store(v & value_mask_, std::memory_order_relaxed);
  }

  /// Unchecked hot-path accessors for the compiled ExecPlan: the compiler
  /// proves every translated address in bounds at publish time, and the
  /// store side masks values itself.
  std::uint32_t load_relaxed(std::uint32_t addr) const noexcept {
    return cells_[addr].load(std::memory_order_relaxed);
  }
  void store_relaxed(std::uint32_t addr, std::uint32_t v) noexcept {
    cells_[addr].store(v, std::memory_order_relaxed);
  }

  /// Raw cell storage, exposed so the compiled batch path can software-
  /// prefetch the row for an upcoming packet (addresses are computable one
  /// packet ahead — the single memory access per SALU).  Hint only; all
  /// real accesses still go through the accessors above.
  const std::atomic<std::uint32_t>* data() const noexcept { return cells_.get(); }

  /// Control-plane bulk read of [begin, end).
  std::vector<std::uint32_t> read_range(std::uint32_t begin, std::uint32_t end) const;

  /// Control-plane reset of [begin, end) to zero.
  void clear_range(std::uint32_t begin, std::uint32_t end);

 private:
  void check(std::uint32_t addr) const {
    if (addr >= size_) throw std::out_of_range("RegisterArray: address out of range");
  }

  /// Unmaps the whole mapping (cells plus guard page), not just the cells.
  struct Unmap {
    void* base;
    std::size_t length;
    void operator()(std::atomic<std::uint32_t>* cells) const noexcept;
  };

  std::unique_ptr<std::atomic<std::uint32_t>[], Unmap> cells_;
  std::uint32_t size_ = 0;
  unsigned bit_width_;
  std::uint32_t value_mask_;
};

/// A stateful ALU bound to one register array.  Holds up to
/// TofinoModel::kMaxRegisterActions pre-loaded operations; the per-packet
/// "Select Operation" table picks which one runs.
class Salu {
 public:
  explicit Salu(RegisterArray& reg) noexcept : reg_(&reg) {}

  /// Pre-load an operation (compile-time configuration).  Throws if the
  /// action-slot budget is exhausted.
  void preload(StatefulOp op);

  bool has_op(StatefulOp op) const noexcept;
  unsigned loaded_ops() const noexcept { return static_cast<unsigned>(ops_.size()); }

  /// Execute one pre-loaded op at `addr` with params p1/p2.  Exactly one
  /// memory access.  Returns the op's result (Appendix A semantics);
  /// arithmetic saturates at the register's bit width.
  std::uint32_t execute(StatefulOp op, std::uint32_t addr, std::uint32_t p1,
                        std::uint32_t p2);

  /// Re-point at a relocated register (the owning CMU rebinding after a
  /// move); pre-loaded operations are preserved.
  void rebind(RegisterArray& reg) noexcept { reg_ = &reg; }

  RegisterArray& reg() noexcept { return *reg_; }
  const RegisterArray& reg() const noexcept { return *reg_; }

 private:
  RegisterArray* reg_;
  std::vector<StatefulOp> ops_;
};

}  // namespace flymon::dataplane
