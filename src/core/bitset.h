#ifndef MITRA_CORE_BITSET_H_
#define MITRA_CORE_BITSET_H_

#include <cstdint>
#include <vector>

#include "common/strings.h"

/// \file bitset.h
/// A compact dynamic bitset used for predicate truth vectors and set-cover
/// coverage sets. Sized at construction; all operands of binary operations
/// must have equal size.

namespace mitra::core {

class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(size_t n) : n_(n), w_((n + 63) / 64, 0) {}

  size_t size() const { return n_; }

  void Set(size_t i) { w_[i >> 6] |= (uint64_t{1} << (i & 63)); }
  void Reset(size_t i) { w_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  bool Test(size_t i) const {
    return (w_[i >> 6] >> (i & 63)) & 1;
  }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : w_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  /// Calls `f(i)` for every set bit `i` in increasing order, a word at a
  /// time: one count-trailing-zeros per set bit, nothing per clear bit.
  template <typename F>
  void ForEachSetBit(F&& f) const {
    for (size_t wi = 0; wi < w_.size(); ++wi) {
      for (uint64_t w = w_[wi]; w != 0; w &= w - 1) {
        f((wi << 6) + static_cast<size_t>(__builtin_ctzll(w)));
      }
    }
  }

  bool Any() const {
    for (uint64_t w : w_) {
      if (w) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  /// Number of set bits in (this & ~mask) — i.e. bits not yet covered.
  size_t CountAndNot(const DynBitset& mask) const {
    size_t c = 0;
    for (size_t i = 0; i < w_.size(); ++i) {
      c += static_cast<size_t>(__builtin_popcountll(w_[i] & ~mask.w_[i]));
    }
    return c;
  }

  DynBitset& operator|=(const DynBitset& o) {
    for (size_t i = 0; i < w_.size(); ++i) w_[i] |= o.w_[i];
    return *this;
  }
  DynBitset& operator&=(const DynBitset& o) {
    for (size_t i = 0; i < w_.size(); ++i) w_[i] &= o.w_[i];
    return *this;
  }
  DynBitset& operator^=(const DynBitset& o) {
    for (size_t i = 0; i < w_.size(); ++i) w_[i] ^= o.w_[i];
    return *this;
  }

  /// True if every set bit of this is also set in `o`.
  bool IsSubsetOf(const DynBitset& o) const {
    for (size_t i = 0; i < w_.size(); ++i) {
      if (w_[i] & ~o.w_[i]) return false;
    }
    return true;
  }

  bool operator==(const DynBitset& o) const {
    return n_ == o.n_ && w_ == o.w_;
  }

  uint64_t Hash() const {
    return Fnv1a64(w_.data(), w_.size() * sizeof(uint64_t));
  }

  /// True when all `size()` bits are set in `covered`.
  bool AllCoveredBy(const DynBitset& covered) const {
    return IsSubsetOf(covered);
  }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> w_;
};

}  // namespace mitra::core

#endif  // MITRA_CORE_BITSET_H_
