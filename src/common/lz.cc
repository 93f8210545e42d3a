#include "common/lz.h"

#include <vector>

#include "common/coding.h"

namespace decibel {
namespace lz {

namespace {

constexpr char kLiteralTag = 0x00;
constexpr char kCopyTag = 0x01;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 15;
constexpr size_t kWindow = 1 << 16;
constexpr int kHashBits = 15;
constexpr int kMaxChain = 16;  // bounded match-finder effort

inline uint32_t HashAt(const char* p) {
  uint32_t v;
  memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashBits);
}

void FlushLiteral(Slice input, size_t start, size_t end, std::string* out) {
  if (end <= start) return;
  out->push_back(kLiteralTag);
  PutVarint64(out, end - start);
  out->append(input.data() + start, end - start);
}

}  // namespace

void Compress(Slice input, std::string* output) {
  const size_t n = input.size();
  const char* data = input.data();
  if (n < kMinMatch) {
    FlushLiteral(input, 0, n, output);
    return;
  }
  // head[h] = most recent position with hash h; prev[i] = previous position
  // in the same chain.
  std::vector<int64_t> head(size_t{1} << kHashBits, -1);
  std::vector<int64_t> prev(n, -1);

  size_t lit_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    const uint32_t h = HashAt(data + i);
    size_t best_len = 0;
    size_t best_dist = 0;
    int64_t cand = head[h];
    int chain = 0;
    while (cand >= 0 && i - cand <= kWindow && chain++ < kMaxChain) {
      const size_t dist = i - static_cast<size_t>(cand);
      size_t len = 0;
      const size_t max_len = std::min(kMaxMatch, n - i);
      const char* a = data + cand;
      const char* b = data + i;
      while (len < max_len && a[len] == b[len]) ++len;
      if (len > best_len) {
        best_len = len;
        best_dist = dist;
      }
      cand = prev[cand];
    }
    if (best_len >= kMinMatch) {
      FlushLiteral(input, lit_start, i, output);
      output->push_back(kCopyTag);
      PutVarint64(output, best_dist);
      PutVarint64(output, best_len);
      // Insert the skipped positions into the chains so later matches can
      // reference inside this match (cap the work for long matches).
      const size_t insert_end = std::min(i + best_len, n - kMinMatch + 1);
      for (size_t k = i; k < insert_end; ++k) {
        const uint32_t hk = HashAt(data + k);
        prev[k] = head[hk];
        head[hk] = static_cast<int64_t>(k);
      }
      i += best_len;
      lit_start = i;
    } else {
      prev[i] = head[h];
      head[h] = static_cast<int64_t>(i);
      ++i;
    }
  }
  FlushLiteral(input, lit_start, n, output);
}

Result<std::string> Decompress(Slice input, uint64_t max_size) {
  std::string out;
  while (!input.empty()) {
    const char tag = input[0];
    input.RemovePrefix(1);
    if (tag == kLiteralTag) {
      uint64_t len;
      if (!GetVarint64(&input, &len) || len > input.size()) {
        return Status::Corruption("lz: truncated literal");
      }
      if (len > max_size - out.size()) {
        return Status::Corruption("lz: output longer than expected");
      }
      out.append(input.data(), static_cast<size_t>(len));
      input.RemovePrefix(static_cast<size_t>(len));
    } else if (tag == kCopyTag) {
      uint64_t dist, len;
      if (!GetVarint64(&input, &dist) || !GetVarint64(&input, &len)) {
        return Status::Corruption("lz: truncated copy");
      }
      if (dist == 0 || dist > out.size()) {
        return Status::Corruption("lz: copy distance out of range");
      }
      if (len > max_size - out.size()) {
        return Status::Corruption("lz: output longer than expected");
      }
      // Byte-at-a-time: copies may overlap their own output (RLE-style).
      size_t src = out.size() - static_cast<size_t>(dist);
      for (uint64_t k = 0; k < len; ++k) {
        out.push_back(out[src + static_cast<size_t>(k)]);
      }
    } else {
      return Status::Corruption("lz: bad token tag");
    }
  }
  return out;
}

}  // namespace lz
}  // namespace decibel
