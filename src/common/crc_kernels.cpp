#include "common/crc_kernels.hpp"

#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>
#include <vector>

#if defined(__x86_64__) && !defined(FLYMON_DISABLE_SIMD)
#include <immintrin.h>
#define FLYMON_CRC_HAVE_PCLMUL 1
#endif

namespace flymon {
namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;  // callers are gated on kLittleEndian
}

// ---- GF(2) constant derivation (normal bit order) --------------------------
//
// The PCLMUL folding constants are k(n) = reflect32(x^n mod P) << 1 where P
// is the full 33-bit polynomial in normal bit order.  All of this runs once
// per polynomial at kernel-build time.

std::uint32_t bitrev32(std::uint32_t v) noexcept {
  v = ((v >> 1) & 0x55555555u) | ((v & 0x55555555u) << 1);
  v = ((v >> 2) & 0x33333333u) | ((v & 0x33333333u) << 2);
  v = ((v >> 4) & 0x0F0F0F0Fu) | ((v & 0x0F0F0F0Fu) << 4);
  v = ((v >> 8) & 0x00FF00FFu) | ((v & 0x00FF00FFu) << 8);
  return (v >> 16) | (v << 16);
}

/// Carry-less 32x32 -> 63-bit product.
std::uint64_t clmul32(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < 32; ++i) {
    if ((b >> i) & 1u) r ^= std::uint64_t{a} << i;
  }
  return r;
}

/// Reduce a degree-<64 polynomial mod the full P (x^32 + poly_normal).
std::uint32_t mod_p(std::uint64_t v, std::uint32_t poly_normal) noexcept {
  for (int i = 63; i >= 32; --i) {
    if ((v >> i) & 1u) {
      v ^= (std::uint64_t{poly_normal} << (i - 32)) ^ (1ull << i);
    }
  }
  return static_cast<std::uint32_t>(v);
}

/// x^n mod P by square-and-multiply in the normal domain.
std::uint32_t xpow_mod(std::uint64_t n, std::uint32_t poly_normal) noexcept {
  std::uint32_t result = 1u;  // x^0
  std::uint32_t base = 2u;    // x^1
  while (n != 0) {
    if (n & 1u) result = mod_p(clmul32(result, base), poly_normal);
    base = mod_p(clmul32(base, base), poly_normal);
    n >>= 1;
  }
  return result;
}

/// Quotient of x^64 / P (degree 32, i.e. 33 bits).
std::uint64_t xdiv64(std::uint32_t poly_normal) noexcept {
  using u128 = unsigned __int128;
  u128 rem = u128{1} << 64;
  const u128 p = (u128{1} << 32) | poly_normal;
  std::uint64_t q = 0;
  for (int i = 64; i >= 32; --i) {
    if ((rem >> i) & 1u) {
      q |= 1ull << (i - 32);
      rem ^= p << (i - 32);
    }
  }
  return q;
}

/// k(n) = reflect32(x^n mod P) << 1 — the reflected-domain fold constant.
std::uint64_t fold_constant(std::uint64_t n, std::uint32_t poly_normal) noexcept {
  return std::uint64_t{bitrev32(xpow_mod(n, poly_normal))} << 1;
}

// ---- PCLMUL folding --------------------------------------------------------
//
// Free functions with a `target` attribute so this TU compiles without
// -mpclmul; runtime dispatch guarantees they only run on capable CPUs.

#if defined(FLYMON_CRC_HAVE_PCLMUL)

/// Reduce a 128-bit folded accumulator to the 32-bit CRC state.
__attribute__((target("pclmul,sse4.1"))) inline std::uint32_t clmul_reduce(
    __m128i x1, std::uint64_t k4, std::uint64_t k5, std::uint64_t bp,
    std::uint64_t bmu) noexcept {
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  // Fold 128 -> 64 bits: the low qword (older message bits) folds across
  // the high qword with k4 = x^(128-32).
  __m128i x2 = _mm_clmulepi64_si128(x1, _mm_cvtsi64_si128(static_cast<long long>(k4)), 0x00);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  const __m128i k5v = _mm_cvtsi64_si128(static_cast<long long>(k5));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, k5v, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction 64 -> 32 bits.
  const __m128i pmu = _mm_set_epi64x(static_cast<long long>(bmu),
                                     static_cast<long long>(bp));
  x2 = _mm_and_si128(x1, mask32);
  x2 = _mm_clmulepi64_si128(x2, pmu, 0x10);
  x2 = _mm_and_si128(x2, mask32);
  x2 = _mm_clmulepi64_si128(x2, pmu, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

/// Fold n bytes (n >= 16, n % 16 == 0) into the CRC state.  Reflected-
/// domain folding per the Intel whitepaper: the accumulator's low qword
/// holds the older (higher-degree) message bits, so it folds with
/// k3 = x^(128+32) and the high qword with k4 = x^(128-32).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmul_fold(
    const std::uint8_t* p, std::size_t n, std::uint32_t c, std::uint64_t k3,
    std::uint64_t k4, std::uint64_t k5, std::uint64_t bp,
    std::uint64_t bmu) noexcept {
  const __m128i k34 = _mm_set_epi64x(static_cast<long long>(k4),
                                     static_cast<long long>(k3));
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(c)));
  p += 16;
  n -= 16;
  while (n >= 16) {
    const __m128i t = _mm_clmulepi64_si128(x1, k34, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k34, 0x11);
    x1 = _mm_xor_si128(x1, t);
    x1 = _mm_xor_si128(x1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    p += 16;
    n -= 16;
  }
  return clmul_reduce(x1, k4, k5, bp, bmu);
}

/// One masked 16-byte block: CRC state after (key[0..15] & mask[0..15]).
/// The AND rides the fold's own loads, so dynamic hashing costs no copy.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmul_block16_masked(
    const std::uint8_t* key, const std::uint8_t* mask, std::uint32_t c,
    std::uint64_t k4, std::uint64_t k5, std::uint64_t bp,
    std::uint64_t bmu) noexcept {
  __m128i x1 =
      _mm_and_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(key)),
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask)));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(c)));
  return clmul_reduce(x1, k4, k5, bp, bmu);
}

#endif  // FLYMON_CRC_HAVE_PCLMUL

// ---- dispatch level --------------------------------------------------------

CrcImpl detect_supported() noexcept {
#if defined(FLYMON_CRC_HAVE_PCLMUL)
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return CrcImpl::kPclmul;
  }
#endif
  // slice8 needs cheap unaligned little-endian 32-bit loads.
  return kLittleEndian ? CrcImpl::kSlice8 : CrcImpl::kScalar;
}

std::atomic<CrcImpl>& active_level() noexcept {
  static std::atomic<CrcImpl> level{detect_supported()};
  return level;
}

}  // namespace

const char* to_string(CrcImpl impl) noexcept {
  switch (impl) {
    case CrcImpl::kScalar: return "scalar";
    case CrcImpl::kSlice8: return "slice8";
    case CrcImpl::kPclmul: return "pclmul";
  }
  return "?";
}

CrcImpl crc_supported_impl() noexcept { return detect_supported(); }

CrcImpl crc_active_impl() noexcept {
  return active_level().load(std::memory_order_relaxed);
}

void crc_set_impl_override(CrcImpl impl) noexcept {
  const CrcImpl cap = detect_supported();
  active_level().store(impl <= cap ? impl : cap, std::memory_order_relaxed);
}

// ---- kernel construction ---------------------------------------------------

CrcKernel::CrcKernel(std::uint32_t poly_reflected) : poly_(poly_reflected) {
  // Classic byte table, then the slicing-by-8 derivations:
  // tables_[k][b] = state after byte b followed by k zero bytes.
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? poly_reflected ^ (c >> 1) : (c >> 1);
    }
    tables_[0][i] = c;
  }
  for (std::size_t k = 1; k < tables_.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables_[k - 1][i];
      tables_[k][i] = tables_[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }

  // Folding/Barrett constants (derived in the normal domain, reflected on
  // the way out).  k1/k2 cover a future 64-byte fold-by-4; the shipped
  // kernel folds 16 bytes at a time with k3/k4.
  const std::uint32_t pn = bitrev32(poly_reflected);
  k1_ = fold_constant(4 * 128 + 32, pn);
  k2_ = fold_constant(4 * 128 - 32, pn);
  k3_ = fold_constant(128 + 32, pn);
  k4_ = fold_constant(128 - 32, pn);
  k5_ = fold_constant(64, pn);
  bp_ = (std::uint64_t{poly_reflected} << 1) | 1u;
  bmu_ =
      (std::uint64_t{bitrev32(static_cast<std::uint32_t>(xdiv64(pn)))} << 1) |
      1u;
}

// ---- scalar / slice8 -------------------------------------------------------

std::uint32_t CrcKernel::update_scalar(const std::uint8_t* p, std::size_t n,
                                       std::uint32_t c) const noexcept {
  const auto& t = tables_[0];
  for (std::size_t i = 0; i < n; ++i) c = t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c;
}

std::uint32_t CrcKernel::update_slice8(const std::uint8_t* p, std::size_t n,
                                       std::uint32_t c) const noexcept {
  if constexpr (!kLittleEndian) return update_scalar(p, n, c);
  while (n >= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = tables_[7][lo & 0xFFu] ^ tables_[6][(lo >> 8) & 0xFFu] ^
        tables_[5][(lo >> 16) & 0xFFu] ^ tables_[4][lo >> 24] ^
        tables_[3][hi & 0xFFu] ^ tables_[2][(hi >> 8) & 0xFFu] ^
        tables_[1][(hi >> 16) & 0xFFu] ^ tables_[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  return update_scalar(p, n, c);
}

// ---- dispatching entry points ---------------------------------------------

std::uint32_t CrcKernel::update(const std::uint8_t* p, std::size_t n,
                                std::uint32_t c) const noexcept {
  const CrcImpl level = crc_active_impl();
#if defined(FLYMON_CRC_HAVE_PCLMUL)
  if (level == CrcImpl::kPclmul && n >= 16) {
    const std::size_t folded = n & ~std::size_t{15};
    c = clmul_fold(p, folded, c, k3_, k4_, k5_, bp_, bmu_);
    return update_slice8(p + folded, n - folded, c);
  }
#endif
  if (level >= CrcImpl::kSlice8) return update_slice8(p, n, c);
  return update_scalar(p, n, c);
}

std::uint32_t CrcKernel::update_fixed17(const std::uint8_t* p,
                                        std::uint32_t c) const noexcept {
#if defined(FLYMON_CRC_HAVE_PCLMUL)
  if (crc_active_impl() == CrcImpl::kPclmul) {
    c = clmul_fold(p, 16, c, k3_, k4_, k5_, bp_, bmu_);
    return tables_[0][(c ^ p[16]) & 0xFFu] ^ (c >> 8);
  }
#endif
  if (kLittleEndian && crc_active_impl() >= CrcImpl::kSlice8) {
    for (int round = 0; round < 2; ++round) {
      const std::uint32_t lo = c ^ load_le32(p);
      const std::uint32_t hi = load_le32(p + 4);
      c = tables_[7][lo & 0xFFu] ^ tables_[6][(lo >> 8) & 0xFFu] ^
          tables_[5][(lo >> 16) & 0xFFu] ^ tables_[4][lo >> 24] ^
          tables_[3][hi & 0xFFu] ^ tables_[2][(hi >> 8) & 0xFFu] ^
          tables_[1][(hi >> 16) & 0xFFu] ^ tables_[0][hi >> 24];
      p += 8;
    }
    return tables_[0][(c ^ p[0]) & 0xFFu] ^ (c >> 8);
  }
  return update_scalar(p, 17, c);
}

std::uint32_t CrcKernel::compute_masked17(const std::uint8_t* key,
                                          const std::uint8_t* mask,
                                          std::uint32_t init) const noexcept {
#if defined(FLYMON_CRC_HAVE_PCLMUL)
  if (crc_active_impl() == CrcImpl::kPclmul) {
    const std::uint32_t c =
        clmul_block16_masked(key, mask, init, k4_, k5_, bp_, bmu_);
    const std::uint8_t tail = static_cast<std::uint8_t>(key[16] & mask[16]);
    return (tables_[0][(c ^ tail) & 0xFFu] ^ (c >> 8)) ^ 0xFFFFFFFFu;
  }
#endif
  std::uint8_t masked[17];
  for (std::size_t i = 0; i < 17; ++i) {
    masked[i] = static_cast<std::uint8_t>(key[i] & mask[i]);
  }
  return update_fixed17(masked, init) ^ 0xFFFFFFFFu;
}

// ---- kernel registry -------------------------------------------------------

namespace {

// Append-only open-addressed table of built kernels.  Lookup is a handful
// of relaxed/acquire loads; insertion takes a mutex once per new
// polynomial.  Kernels are never destroyed — HashUnits and compiled plans
// hold raw pointers into it for the process lifetime.
constexpr std::size_t kRegistrySlots = 64;
std::array<std::atomic<const CrcKernel*>, kRegistrySlots> g_registry{};
std::mutex g_registry_mu;

}  // namespace

const CrcKernel& crc_kernel_for(std::uint32_t poly_reflected) {
  const std::size_t h =
      (static_cast<std::size_t>(poly_reflected) * 0x9E3779B9u) % kRegistrySlots;
  for (std::size_t probe = 0; probe < kRegistrySlots; ++probe) {
    const std::size_t idx = (h + probe) % kRegistrySlots;
    const CrcKernel* k = g_registry[idx].load(std::memory_order_acquire);
    if (k == nullptr) break;
    if (k->poly() == poly_reflected) return *k;
  }
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (std::size_t probe = 0; probe < kRegistrySlots; ++probe) {
    const std::size_t idx = (h + probe) % kRegistrySlots;
    const CrcKernel* k = g_registry[idx].load(std::memory_order_acquire);
    if (k == nullptr) {
      const CrcKernel* fresh = new CrcKernel(poly_reflected);  // never freed
      g_registry[idx].store(fresh, std::memory_order_release);
      return *fresh;
    }
    if (k->poly() == poly_reflected) return *k;
  }
  // More than kRegistrySlots distinct polynomials in one process: fall back
  // to a slow mutex-guarded overflow list (also never freed).
  static std::vector<const CrcKernel*>* overflow =
      new std::vector<const CrcKernel*>();
  for (const CrcKernel* k : *overflow) {
    if (k->poly() == poly_reflected) return *k;
  }
  overflow->push_back(new CrcKernel(poly_reflected));
  return *overflow->back();
}

}  // namespace flymon
