#ifndef DECIBEL_WAL_WAL_READER_H_
#define DECIBEL_WAL_WAL_READER_H_

/// \file wal_reader.h
/// Sequential reader over one WAL segment. Stops cleanly at the first
/// frame that is incomplete, oversized, zero-length, or fails its CRC —
/// the torn tail a crash mid-append leaves behind, or the zero-filled
/// tail of a kFsync segment — and reports the byte offset where the valid
/// prefix ends so recovery can truncate the rest away.

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "wal/wal_format.h"

namespace decibel {
namespace wal {

class Reader {
 public:
  /// Reads the whole segment into memory (segments are bounded by the
  /// writer's rollover threshold).
  static Result<std::unique_ptr<Reader>> Open(const std::string& path);

  /// Advances to the next valid record. Returns false at the end of the
  /// valid prefix — either a clean end-of-file or a torn/corrupt frame
  /// (distinguish with torn_tail()). The FrameView's body points into the
  /// reader's buffer and stays valid until the reader is destroyed.
  bool Next(FrameView* frame);

  /// Byte offset one past the last valid record (== file size iff the
  /// segment ends cleanly). Meaningful once Next returned false.
  uint64_t valid_end() const { return valid_end_; }
  /// True if the segment ends in a torn or corrupt frame rather than at
  /// a record boundary.
  bool torn_tail() const { return torn_tail_; }
  uint64_t file_size() const { return data_.size(); }

 private:
  explicit Reader(std::string data) : data_(std::move(data)) {}

  const std::string data_;
  uint64_t pos_ = 0;
  uint64_t valid_end_ = 0;
  bool torn_tail_ = false;
  bool done_ = false;
};

}  // namespace wal
}  // namespace decibel

#endif  // DECIBEL_WAL_WAL_READER_H_
