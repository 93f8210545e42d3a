#include "common/rle.h"

#include "common/coding.h"

namespace decibel {
namespace rle {

namespace {
constexpr char kZeroRun = 0x00;
constexpr char kByteRun = 0x01;
constexpr char kLiteral = 0x02;

void FlushLiteral(Slice input, size_t lit_start, size_t lit_end,
                  std::string* output) {
  if (lit_end <= lit_start) return;
  output->push_back(kLiteral);
  PutVarint64(output, lit_end - lit_start);
  output->append(input.data() + lit_start, lit_end - lit_start);
}
}  // namespace

void Encode(Slice input, std::string* output) {
  size_t i = 0;
  size_t lit_start = 0;
  const size_t n = input.size();
  while (i < n) {
    // Measure the run starting at i.
    size_t j = i + 1;
    while (j < n && input[j] == input[i]) ++j;
    const size_t run = j - i;
    if (run >= kMinRun) {
      FlushLiteral(input, lit_start, i, output);
      output->push_back(input[i] == 0 ? kZeroRun : kByteRun);
      PutVarint64(output, run);
      if (input[i] != 0) output->push_back(input[i]);
      i = j;
      lit_start = i;
    } else {
      i = j;
    }
  }
  FlushLiteral(input, lit_start, n, output);
}

namespace {

/// Shared decode loop; Emit(pos, ptr_or_null, byte, len) writes output.
template <typename EmitRun, typename EmitLiteral>
Status DecodeLoop(Slice input, uint64_t max_size, EmitRun&& emit_run,
                  EmitLiteral&& emit_literal) {
  while (!input.empty()) {
    const char tag = input[0];
    input.RemovePrefix(1);
    uint64_t len = 0;
    if (!GetVarint64(&input, &len)) {
      return Status::Corruption("rle: truncated run length");
    }
    if (len > max_size) {
      return Status::Corruption("rle: output longer than expected");
    }
    max_size -= len;
    switch (tag) {
      case kZeroRun:
        emit_run(static_cast<char>(0), len);
        break;
      case kByteRun: {
        if (input.empty()) return Status::Corruption("rle: truncated run");
        const char b = input[0];
        input.RemovePrefix(1);
        emit_run(b, len);
        break;
      }
      case kLiteral: {
        if (len > input.size()) {
          return Status::Corruption("rle: truncated literal");
        }
        emit_literal(Slice(input.data(), static_cast<size_t>(len)));
        input.RemovePrefix(static_cast<size_t>(len));
        break;
      }
      default:
        return Status::Corruption("rle: bad token tag");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::string> Decode(Slice input, uint64_t max_size) {
  std::string out;
  Status s = DecodeLoop(
      input, max_size, [&](char b, uint64_t len) { out.append(len, b); },
      [&](Slice lit) { out.append(lit.data(), lit.size()); });
  if (!s.ok()) return s;
  return out;
}

Status DecodeXorInto(Slice input, uint64_t max_size, std::string* target) {
  size_t pos = 0;
  Status s = DecodeLoop(
      input, max_size,
      [&](char b, uint64_t len) {
        if (b != 0) {
          if (pos + len > target->size()) target->resize(pos + len, '\0');
          for (uint64_t k = 0; k < len; ++k) (*target)[pos + k] ^= b;
        }
        pos += len;
      },
      [&](Slice lit) {
        if (pos + lit.size() > target->size()) {
          target->resize(pos + lit.size(), '\0');
        }
        for (size_t k = 0; k < lit.size(); ++k) (*target)[pos + k] ^= lit[k];
        pos += lit.size();
      });
  return s;
}

}  // namespace rle
}  // namespace decibel
