#ifndef DECIBEL_BITMAP_BITMAP_H_
#define DECIBEL_BITMAP_BITMAP_H_

/// \file bitmap.h
/// A growable bitmap with the bulk boolean algebra the versioned engines
/// live on (§3.1: "Bitmaps are space-efficient and can be quickly
/// intersected for multi-branch operations").
///
/// All binary operations treat the shorter operand as zero-extended, which
/// is exactly the semantics of a branch bitmap that has not yet seen the
/// newest tuples.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/slice.h"

namespace decibel {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(uint64_t nbits) { Resize(nbits); }

  uint64_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  /// Grows or shrinks to \p nbits; new bits are zero.
  void Resize(uint64_t nbits);

  /// Grows (never shrinks) so that bit \p i is addressable, doubling the
  /// backing array (§3.2's amortized growth).
  void EnsureBit(uint64_t i);

  void Set(uint64_t i) {
    EnsureBit(i);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }
  void Reset(uint64_t i) {
    if (i >= nbits_) return;
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void SetTo(uint64_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }
  bool Test(uint64_t i) const {
    if (i >= nbits_) return false;
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  /// Bits [64 * w, 64 * w + 64) as one word, bit i at position i % 64;
  /// zero past the end.
  uint64_t Word(uint64_t w) const {
    return w < words_.size() ? words_[w] : 0;
  }

  /// Number of set bits.
  uint64_t Count() const;
  /// Number of set bits among bits [0, limit).
  uint64_t CountPrefix(uint64_t limit) const;
  bool Any() const;

  /// In-place boolean algebra; the other operand is zero-extended or this
  /// bitmap grows as appropriate.
  void OrWith(const Bitmap& other);
  void AndWith(const Bitmap& other);
  void XorWith(const Bitmap& other);
  void AndNotWith(const Bitmap& other);  ///< this &= ~other

  static Bitmap Or(const Bitmap& a, const Bitmap& b);
  static Bitmap And(const Bitmap& a, const Bitmap& b);
  static Bitmap Xor(const Bitmap& a, const Bitmap& b);
  static Bitmap AndNot(const Bitmap& a, const Bitmap& b);

  /// Calls \p fn for every set bit in ascending order.
  void ForEachSet(const std::function<void(uint64_t)>& fn) const;

  /// Index of the first set bit at or after \p from, or UINT64_MAX.
  uint64_t NextSet(uint64_t from) const;

  bool operator==(const Bitmap& other) const;

  /// Raw little-endian bytes of the bit array (length = ceil(nbits/8)),
  /// used as commit-snapshot input to the RLE delta encoder.
  std::string ToBytes() const;
  static Bitmap FromBytes(Slice bytes, uint64_t nbits);

  /// Serialization with an explicit bit count.
  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, Bitmap* out);

  /// Heap bytes used by the backing array (for stats/Table 2).
  uint64_t MemoryBytes() const { return words_.capacity() * 8; }

 private:
  void TrimTail();  // clear bits beyond nbits_ in the last word

  std::vector<uint64_t> words_;
  uint64_t nbits_ = 0;
};

}  // namespace decibel

#endif  // DECIBEL_BITMAP_BITMAP_H_
