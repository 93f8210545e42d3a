#ifndef DECIBEL_COMMON_LZ_H_
#define DECIBEL_COMMON_LZ_H_

/// \file lz.h
/// "Deflate-lite": a greedy LZ77 compressor with a hash-chain match finder.
/// This stands in for zlib in the git-like baseline (git compresses every
/// loose object and packfile entry). It is deliberately simple — the point
/// is to reproduce git's cost structure (compression on commit, exhaustive
/// delta+compress at repack), not to win compression contests.
///
/// Format: a sequence of tokens.
///   0x00 <varint n> <n bytes>           -- literal run
///   0x01 <varint dist> <varint len>     -- copy len bytes from dist back

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/slice.h"

namespace decibel {
namespace lz {

/// Compresses \p input, appending to \p output.
void Compress(Slice input, std::string* output);

/// Decompresses a full stream produced by Compress. Fails with Corruption
/// on a malformed stream or on output longer than \p max_size bytes (a
/// copy length read from corrupt bytes must not size the output).
Result<std::string> Decompress(Slice input, uint64_t max_size);

}  // namespace lz
}  // namespace decibel

#endif  // DECIBEL_COMMON_LZ_H_
