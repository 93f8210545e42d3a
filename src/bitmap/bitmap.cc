#include "bitmap/bitmap.h"

#include <bit>
#include <cstring>

#include "common/coding.h"

namespace decibel {

namespace {
inline uint64_t WordsFor(uint64_t nbits) { return (nbits + 63) / 64; }
}  // namespace

void Bitmap::Resize(uint64_t nbits) {
  words_.resize(WordsFor(nbits), 0);
  nbits_ = nbits;
  TrimTail();
}

void Bitmap::EnsureBit(uint64_t i) {
  if (i < nbits_) return;
  const uint64_t needed = WordsFor(i + 1);
  if (needed > words_.size()) {
    uint64_t cap = words_.capacity() == 0 ? 4 : words_.capacity();
    while (cap < needed) cap *= 2;
    words_.reserve(cap);
    words_.resize(needed, 0);
  }
  nbits_ = i + 1;
}

void Bitmap::TrimTail() {
  const uint64_t tail_bits = nbits_ & 63;
  if (tail_bits != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail_bits) - 1;
  }
}

uint64_t Bitmap::Count() const {
  uint64_t c = 0;
  for (uint64_t w : words_) c += static_cast<uint64_t>(std::popcount(w));
  return c;
}

uint64_t Bitmap::CountPrefix(uint64_t limit) const {
  if (limit >= nbits_) return Count();
  uint64_t c = 0;
  const uint64_t full_words = limit >> 6;
  for (uint64_t i = 0; i < full_words; ++i) {
    c += static_cast<uint64_t>(std::popcount(words_[i]));
  }
  const uint64_t tail = limit & 63;
  if (tail != 0) {
    c += static_cast<uint64_t>(
        std::popcount(words_[full_words] & ((uint64_t{1} << tail) - 1)));
  }
  return c;
}

bool Bitmap::Any() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

void Bitmap::OrWith(const Bitmap& other) {
  if (other.nbits_ > nbits_) Resize(other.nbits_);
  for (size_t i = 0; i < other.words_.size(); ++i) words_[i] |= other.words_[i];
}

void Bitmap::AndWith(const Bitmap& other) {
  const size_t common = std::min(words_.size(), other.words_.size());
  for (size_t i = 0; i < common; ++i) words_[i] &= other.words_[i];
  for (size_t i = common; i < words_.size(); ++i) words_[i] = 0;
}

void Bitmap::XorWith(const Bitmap& other) {
  if (other.nbits_ > nbits_) Resize(other.nbits_);
  for (size_t i = 0; i < other.words_.size(); ++i) words_[i] ^= other.words_[i];
}

void Bitmap::AndNotWith(const Bitmap& other) {
  const size_t common = std::min(words_.size(), other.words_.size());
  for (size_t i = 0; i < common; ++i) words_[i] &= ~other.words_[i];
}

Bitmap Bitmap::Or(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.OrWith(b);
  return r;
}
Bitmap Bitmap::And(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.AndWith(b);
  return r;
}
Bitmap Bitmap::Xor(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.XorWith(b);
  return r;
}
Bitmap Bitmap::AndNot(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.AndNotWith(b);
  return r;
}

void Bitmap::ForEachSet(const std::function<void(uint64_t)>& fn) const {
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      fn((static_cast<uint64_t>(wi) << 6) + static_cast<uint64_t>(bit));
      w &= w - 1;
    }
  }
}

uint64_t Bitmap::NextSet(uint64_t from) const {
  if (from >= nbits_) return UINT64_MAX;
  uint64_t wi = from >> 6;
  uint64_t w = words_[wi] & ~((uint64_t{1} << (from & 63)) - 1);
  for (;;) {
    if (w != 0) {
      return (wi << 6) + static_cast<uint64_t>(std::countr_zero(w));
    }
    if (++wi >= words_.size()) return UINT64_MAX;
    w = words_[wi];
  }
}

bool Bitmap::operator==(const Bitmap& other) const {
  // Equality up to zero-extension: trailing zero words are insignificant.
  const size_t common = std::min(words_.size(), other.words_.size());
  // Zero-length memcmp with a null pointer (either bitmap empty) is UB.
  if (common != 0 &&
      memcmp(words_.data(), other.words_.data(), common * 8) != 0) {
    return false;
  }
  for (size_t i = common; i < words_.size(); ++i) {
    if (words_[i] != 0) return false;
  }
  for (size_t i = common; i < other.words_.size(); ++i) {
    if (other.words_[i] != 0) return false;
  }
  return true;
}

std::string Bitmap::ToBytes() const {
  const uint64_t nbytes = (nbits_ + 7) / 8;
  std::string out(nbytes, '\0');
  // An empty bitmap has words_.data() == nullptr; memcpy from a null
  // pointer is UB even for zero bytes.
  if (nbytes != 0) memcpy(out.data(), words_.data(), nbytes);
  return out;
}

Bitmap Bitmap::FromBytes(Slice bytes, uint64_t nbits) {
  Bitmap b;
  b.Resize(nbits);
  const uint64_t n = std::min<uint64_t>(bytes.size(), (nbits + 7) / 8);
  // An empty input Slice carries a null data(); skip the zero-length copy.
  if (n != 0) memcpy(b.words_.data(), bytes.data(), n);
  b.TrimTail();
  return b;
}

void Bitmap::EncodeTo(std::string* dst) const {
  PutVarint64(dst, nbits_);
  const std::string bytes = ToBytes();
  PutLengthPrefixed(dst, bytes);
}

bool Bitmap::DecodeFrom(Slice* input, Bitmap* out) {
  uint64_t nbits;
  Slice bytes;
  // EncodeTo writes exactly (nbits + 7) / 8 bytes; checking that keeps a
  // corrupt nbits from sizing the allocation.
  if (!GetVarint64(input, &nbits) || !GetLengthPrefixed(input, &bytes) ||
      bytes.size() != nbits / 8 + (nbits % 8 != 0)) {
    return false;
  }
  *out = FromBytes(bytes, nbits);
  return true;
}

}  // namespace decibel
