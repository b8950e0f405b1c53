// Batch CRC kernels for the compiled hot path.
//
// Tofino hash units are CRC-32 family over selected PHV bytes; the software
// model computes them per packet per configured unit, which makes the
// compression stage the single hottest loop in the system.  This module
// replaces the byte-at-a-time table walk in common/hash.cpp with a family
// of byte-identical kernels behind one immutable descriptor:
//
//   scalar  — the classic one-table byte loop (ground truth, always built);
//   slice8  — slicing-by-8: eight derived tables, 8 input bytes per round
//             (portable fast path, little-endian loads);
//   pclmul  — PCLMULQDQ carry-less-multiply folding (x86-64).  Unlike the
//             SSE4.2 `_mm_crc32` instruction, which hard-wires the
//             CRC-32C polynomial, folding works for *every* reflected
//             polynomial: the per-polynomial fold/Barrett constants are
//             derived at kernel-build time by GF(2) arithmetic.
//
// A CrcKernel is built once per polynomial and cached forever in a
// lock-free registry (crc_kernel_for); HashUnit resolves its kernel at
// construction, so compiled HashSlots carry a pre-resolved descriptor and
// the per-call polynomial lookup disappears from the packet path.  The
// implementation actually used per call is a process-wide dispatch level
// (CPUID-derived, FLYMON_DISABLE_SIMD-capped, test-overridable) so a single
// binary can prove scalar/vectorized equivalence at runtime.
//
// Every kernel returns bit-identical results to a plain bitwise CRC-32 for
// every polynomial, init value and length — the golden exec/translate
// equivalence suites rely on it.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace flymon {

/// CRC implementation tiers, ordered weakest to strongest.  The active
/// level selects the strongest tier <= the CPU's capability (and <= any
/// forced override); kernels fall back tier by tier for short inputs.
enum class CrcImpl : std::uint8_t {
  kScalar = 0,  ///< one-table byte loop (the pre-kernel ground truth)
  kSlice8,      ///< slicing-by-8 table kernel
  kPclmul,      ///< PCLMULQDQ 128-bit folding (x86-64, >= 16-byte inputs)
};

const char* to_string(CrcImpl impl) noexcept;

/// The process-wide dispatch level: strongest tier the CPU supports, capped
/// by -DFLYMON_DISABLE_SIMD=ON builds (then kSlice8) and by any override.
CrcImpl crc_active_impl() noexcept;

/// Strongest tier this binary/CPU could run (ignores the override).
CrcImpl crc_supported_impl() noexcept;

/// Test hook: force the dispatch level at or below the supported tier
/// (stronger requests clamp).  Pass the supported tier to restore defaults.
/// Affects every kernel already resolved — descriptors carry all tiers.
void crc_set_impl_override(CrcImpl impl) noexcept;

/// One polynomial's immutable kernel descriptor: slicing tables plus the
/// PCLMUL folding/Barrett constants, all derived from the reflected
/// polynomial at build time.  ~8 KB each; built once, never freed, so raw
/// pointers to a descriptor stay valid for the process lifetime.
class CrcKernel {
 public:
  explicit CrcKernel(std::uint32_t poly_reflected);

  std::uint32_t poly() const noexcept { return poly_; }

  /// Full CRC (applies the final xor).
  std::uint32_t compute(std::span<const std::uint8_t> data,
                        std::uint32_t init) const noexcept {
    return update(data.data(), data.size(), init) ^ 0xFFFFFFFFu;
  }

  /// Raw state update (no final xor): c' = crc-advance of c over n bytes.
  std::uint32_t update(const std::uint8_t* p, std::size_t n,
                       std::uint32_t c) const noexcept;

  /// Fixed-length specialisation for the 17-byte candidate key on the
  /// packet path: two unrolled slice-8 rounds, or one PCLMUL fold.
  std::uint32_t update_fixed17(const std::uint8_t* p,
                               std::uint32_t c) const noexcept;

  /// The compression-stage primitive: CRC of (key[i] & mask[i]) over the
  /// 17 candidate-key bytes, final xor applied.  The mask AND folds into
  /// the kernel's own loads, so dynamic hashing costs no extra pass.
  std::uint32_t compute_masked17(const std::uint8_t* key,
                                 const std::uint8_t* mask,
                                 std::uint32_t init) const noexcept;

  // ---- folding constants, exposed for the self-check tests ----
  // Naming follows Intel's "Fast CRC Computation for Generic Polynomials
  // Using PCLMULQDQ": k(n) = reflect32(x^n mod P) << 1.
  std::uint64_t k_fold1_hi() const noexcept { return k3_; }  ///< x^(128+32)
  std::uint64_t k_fold1_lo() const noexcept { return k4_; }  ///< x^(128-32)
  std::uint64_t k_fold_width() const noexcept { return k5_; }  ///< x^64
  std::uint64_t barrett_poly() const noexcept { return bp_; }  ///< (P<<1)|1
  std::uint64_t barrett_mu() const noexcept { return bmu_; }   ///< x^64 / P

 private:
  std::uint32_t update_scalar(const std::uint8_t* p, std::size_t n,
                              std::uint32_t c) const noexcept;
  std::uint32_t update_slice8(const std::uint8_t* p, std::size_t n,
                              std::uint32_t c) const noexcept;

  std::uint32_t poly_ = 0;
  /// tables_[0] is the classic byte table; tables_[k][b] advances byte b
  /// followed by k zero bytes (slicing-by-8 identity).
  std::array<std::array<std::uint32_t, 256>, 8> tables_{};
  std::uint64_t k1_ = 0, k2_ = 0;  ///< x^(4*128±32): 64-byte fold (reserved)
  std::uint64_t k3_ = 0, k4_ = 0;  ///< x^(128±32): 16-byte fold
  std::uint64_t k5_ = 0;           ///< x^64: 128 -> 64 bit reduction
  std::uint64_t bp_ = 0, bmu_ = 0; ///< Barrett: poly', mu'
};

/// Resolve (building on first use) the kernel for a reflected polynomial.
/// Lock-free lookup on the hot path; the returned reference is valid for
/// the process lifetime.
const CrcKernel& crc_kernel_for(std::uint32_t poly_reflected);

}  // namespace flymon
