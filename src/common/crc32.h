#ifndef DECIBEL_COMMON_CRC32_H_
#define DECIBEL_COMMON_CRC32_H_

/// \file crc32.h
/// CRC-32 (IEEE 802.3 polynomial) that checksums everything Decibel
/// persists or ships: heap-file headers and pages, commit-history records,
/// the version-graph file, WAL frames, the manifest and wire-protocol
/// frames. (The git-like baseline addresses its objects by SHA-1 instead.)
/// Corruption surfaces as a Status error instead of a silent wrong answer.
///
/// On x86-64 CPUs with PCLMULQDQ and SSE4.1 (checked once at runtime) the
/// bulk of each input is folded 64 bytes at a time with carry-less
/// multiplies; other CPUs, other targets, inputs under 64 bytes and the
/// last 0-15 bytes of every input take the portable slice-by-8 table
/// loop. Both paths compute the same function, so every stored checksum
/// is readable whichever path wrote it.

#include <cstdint>

#include "common/slice.h"

namespace decibel {

/// Computes the CRC-32 of \p data, continuing from \p seed (0 for a fresh
/// checksum): Crc32(b, Crc32(a)) == Crc32(a + b).
uint32_t Crc32(Slice data, uint32_t seed = 0);

namespace crc32 {

/// Forces (or un-forces) the slice-by-8 path so tests can check the two
/// paths against each other on the same machine.
void ForceScalarForTest(bool force);

}  // namespace crc32

/// Masked CRC in the RocksDB style: storing a CRC of data that itself
/// contains CRCs is error-prone, so persisted checksums are masked.
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace decibel

#endif  // DECIBEL_COMMON_CRC32_H_
