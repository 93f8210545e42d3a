#ifndef DECIBEL_COMMON_RLE_H_
#define DECIBEL_COMMON_RLE_H_

/// \file rle.h
/// Byte-oriented run-length encoding tuned for bitmap XOR deltas (§3.2 of
/// the paper): a delta between two bitmap snapshots is overwhelmingly zero
/// bytes with sparse set bits, so long zero runs dominate.
///
/// Format: a sequence of tokens.
///   0x00 <varint n>            -- a run of n zero bytes
///   0x01 <varint n> <byte b>   -- a run of n copies of byte b (b != 0)
///   0x02 <varint n> <n bytes>  -- n literal bytes
/// A run token is only emitted for runs >= kMinRun; shorter stretches are
/// folded into literals to avoid token overhead on noisy data.

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/slice.h"

namespace decibel {
namespace rle {

/// Minimum repeat length encoded as a run instead of a literal.
inline constexpr size_t kMinRun = 4;

/// Appends the RLE encoding of \p input to \p output.
void Encode(Slice input, std::string* output);

/// Decodes a full RLE stream. Fails with Corruption on malformed input or
/// on output longer than \p max_size bytes (a run length read from
/// corrupt bytes must not size an allocation).
Result<std::string> Decode(Slice input, uint64_t max_size);

/// Decodes and XORs the decoded bytes into \p target, growing it with
/// zeros if the decoded output is longer (bitmaps grow between commits, and
/// bytes past the end of the shorter snapshot are implicitly zero). Used to
/// replay bitmap commit deltas without materializing the intermediate
/// plain buffer. \p max_size bounds the decoded length as in Decode.
Status DecodeXorInto(Slice input, uint64_t max_size, std::string* target);

}  // namespace rle
}  // namespace decibel

#endif  // DECIBEL_COMMON_RLE_H_
