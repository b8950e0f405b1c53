#include "verify/tcam_lint.hpp"

#include <sstream>

namespace flymon::verify {

using dataplane::TernaryPattern;

bool covers(const TernaryPattern& a, const TernaryPattern& b) noexcept {
  // a's care bits must be a subset of b's care bits and agree on them.
  return (a.mask & ~b.mask) == 0 && ((a.value ^ b.value) & a.mask) == 0;
}

bool overlaps(const TernaryPattern& a, const TernaryPattern& b) noexcept {
  return ((a.value ^ b.value) & a.mask & b.mask) == 0;
}

std::string check_range_reassembly(const std::vector<TernaryPattern>& patterns,
                                   std::uint64_t lo, std::uint64_t hi,
                                   unsigned width) {
  const std::uint64_t full =
      width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const TernaryPattern& p = patterns[i];
    if ((p.mask & ~full) != 0) {
      std::ostringstream err;
      err << "pattern " << i << " masks bits beyond the " << width << "-bit key";
      return err.str();
    }
    const std::uint64_t low_zeros = ~p.mask & full;
    if ((low_zeros & (low_zeros + 1)) != 0) {
      return "pattern " + std::to_string(i) + " is not an aligned prefix block";
    }
    const std::uint64_t size = low_zeros + 1;
    const std::uint64_t base = p.value & p.mask;
    if (base < lo || base + size - 1 > hi) {
      std::ostringstream err;
      err << "pattern " << i << " block [" << base << ", " << (base + size - 1)
          << "] escapes the range [" << lo << ", " << hi << "]";
      return err.str();
    }
    // Earlier patterns already passed the checks above, so each is an
    // aligned block inside the range.
    for (std::size_t k = 0; k < i; ++k) {
      const std::uint64_t osize = (~patterns[k].mask & full) + 1;
      const std::uint64_t obase = patterns[k].value & patterns[k].mask;
      if (base < obase + osize && obase < base + size) {
        return "pattern " + std::to_string(i) +
               " overlaps an earlier expansion block";
      }
    }
    covered += size;
  }
  if (covered != hi - lo + 1) {
    return "expansion covers " + std::to_string(covered) +
           " keys, range holds " + std::to_string(hi - lo + 1);
  }
  return {};
}

}  // namespace flymon::verify
