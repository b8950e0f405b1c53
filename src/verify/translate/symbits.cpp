#include "verify/translate/symbits.hpp"

#include <bit>
#include <sstream>

namespace flymon::verify::translate {

bool SymWord::Lane::zero() const noexcept {
  for (const std::uint32_t r : rows) {
    if (r != 0) return false;
  }
  return true;
}

std::span<const SymWord::Lane> SymWord::lanes() const noexcept {
  if (count_ <= kInlineLanes) return {inline_.data(), count_};
  return spill_;
}

void SymWord::push(const Lane& lane) {
  if (lane.zero()) return;  // canonical: no lane without a term
  if (count_ < kInlineLanes) {
    inline_[count_] = lane;
  } else {
    if (count_ == kInlineLanes) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(lane);
  }
  ++count_;
}

template <class F>
void SymWord::zip(const SymWord& a, const SymWord& b, F f) {
  const auto la = a.lanes();
  const auto lb = b.lanes();
  std::size_t i = 0, j = 0;
  while (i < la.size() || j < lb.size()) {
    if (j == lb.size() || (i < la.size() && la[i].id < lb[j].id)) {
      f(&la[i++], nullptr);
    } else if (i == la.size() || lb[j].id < la[i].id) {
      f(nullptr, &lb[j++]);
    } else {
      f(&la[i++], &lb[j++]);
    }
  }
}

SymWord SymWord::constant(std::uint32_t v) {
  SymWord w;
  w.constant_ = v;
  return w;
}

SymWord SymWord::lane(std::uint32_t lane_id) {
  Lane l;
  l.id = lane_id;
  for (unsigned i = 0; i < 32; ++i) l.rows[i] = 1u << i;
  SymWord w;
  w.push(l);
  return w;
}

SymWord SymWord::operator^(const SymWord& o) const {
  SymWord w;
  w.constant_ = constant_ ^ o.constant_;
  // Rows add per lane (x ^ x = 0, so equal terms cancel).
  zip(*this, o, [&w](const Lane* x, const Lane* y) {
    Lane l;
    l.id = (x != nullptr ? x : y)->id;
    for (unsigned r = 0; r < 32; ++r) {
      l.rows[r] = (x != nullptr ? x->rows[r] : 0u) ^ (y != nullptr ? y->rows[r] : 0u);
    }
    w.push(l);
  });
  return w;
}

SymWord SymWord::operator&(std::uint32_t mask) const {
  SymWord w;
  w.constant_ = constant_ & mask;
  for (const Lane& src : lanes()) {
    Lane l;
    l.id = src.id;
    for (unsigned r = 0; r < 32; ++r) {
      if (((mask >> r) & 1u) != 0) l.rows[r] = src.rows[r];
    }
    w.push(l);
  }
  return w;
}

SymWord SymWord::operator>>(unsigned n) const {
  SymWord w;
  if (n >= 32) return w;  // all bits constant 0
  w.constant_ = constant_ >> n;
  for (const Lane& src : lanes()) {
    Lane l;
    l.id = src.id;
    for (unsigned r = 0; r + n < 32; ++r) l.rows[r] = src.rows[r + n];
    w.push(l);
  }
  return w;
}

SymBit SymWord::bit(unsigned i) const {
  SymBit b;
  b.constant = ((constant_ >> i) & 1u) != 0;
  for (const Lane& l : lanes()) {
    for (std::uint32_t row = l.rows[i]; row != 0; row &= row - 1) {
      b.vars.push_back(l.id * 32u + static_cast<std::uint32_t>(std::countr_zero(row)));
    }
  }
  return b;
}

int SymWord::first_divergent_bit(const SymWord& a, const SymWord& b) {
  // Bit r diverges iff the constants or some lane's row r differ.
  std::uint32_t diff = a.constant_ ^ b.constant_;
  zip(a, b, [&diff](const Lane* x, const Lane* y) {
    for (unsigned r = 0; r < 32; ++r) {
      if ((x != nullptr ? x->rows[r] : 0u) != (y != nullptr ? y->rows[r] : 0u)) {
        diff |= 1u << r;
      }
    }
  });
  return diff == 0 ? -1 : std::countr_zero(diff);
}

std::string SymWord::to_string() const {
  std::ostringstream out;
  out << "0x" << std::hex << constant_ << std::dec;
  bool any = false;
  for (unsigned i = 0; i < 32; ++i) {
    for (const Lane& l : lanes()) {
      for (std::uint32_t row = l.rows[i]; row != 0; row &= row - 1) {
        out << (any ? "," : " ^ {");
        any = true;
        out << 'L' << l.id << ".b" << std::countr_zero(row) << "->b" << i;
      }
    }
  }
  if (any) out << '}';
  return out.str();
}

}  // namespace flymon::verify::translate
