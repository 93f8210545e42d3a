#ifndef DECIBEL_BITMAP_COMMIT_HISTORY_H_
#define DECIBEL_BITMAP_COMMIT_HISTORY_H_

/// \file commit_history.h
/// On-disk history of a branch's bitmap snapshots (§3.2): each commit is
/// stored as the XOR delta from the previous commit, RLE-compressed. To
/// keep checkout from replaying arbitrarily long delta chains, every
/// kCompositeEvery commits a second-layer *composite* delta (the XOR from
/// the bitmap kCompositeEvery commits earlier) is also written, so a
/// checkout replays O(chain/K + K) deltas. The paper uses exactly two
/// layers; so do we.
///
/// The tuple-first engine keeps one history file per branch; the hybrid
/// engine keeps one per (branch, segment) pair (§5.3, Table 2).
///
/// Record format (append-only file):
///   layer u8 | seq varint | nbits varint | len varint | payload | crc32

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/io.h"
#include "common/result.h"

namespace decibel {

class CommitHistory {
 public:
  /// A composite (layer-1) delta is written every this many commits.
  /// Part of the file format: the file does not record it, and a reader
  /// that assumed another interval would replay the wrong spans.
  static constexpr uint32_t kCompositeEvery = 16;

  /// Creates a new, empty history file (truncates an existing one).
  static Result<std::unique_ptr<CommitHistory>> Create(
      const std::string& path);

  /// Opens an existing history, rebuilding the in-memory record index by
  /// scanning the file.
  static Result<std::unique_ptr<CommitHistory>> Open(const std::string& path);

  /// Records the bitmap state at commit \p seq. Sequence numbers must be
  /// strictly increasing. Thread-safe against concurrent Checkout /
  /// HasCommitAtOrBefore / SizeBytes (snapshot readers walk a branch's
  /// history while its owner commits); concurrent AppendCommit calls must
  /// still be serialized by the caller's branch/stripe lock.
  Status AppendCommit(uint64_t seq, const Bitmap& bitmap);

  /// Reconstructs the bitmap at the latest commit whose seq <= \p seq
  /// ("floor" semantics — hybrid segments only write deltas when dirty).
  /// NotFound if there is no such commit. \p max_bits is the record
  /// universe the snapshots index (no snapshot is larger): a record
  /// header claiming more bits, which its CRC does not cover, is
  /// Corruption instead of an allocation of that size.
  Result<Bitmap> Checkout(uint64_t seq,
                          uint64_t max_bits = UINT64_MAX) const;

  /// The seq of the latest commit at or before \p seq — the one Checkout
  /// would replay — or nullopt if there is none. Two equal floors of one
  /// history name the same bitmap without reading it.
  std::optional<uint64_t> FloorCommit(uint64_t seq) const;

  uint64_t num_commits() const {
    std::lock_guard<std::mutex> guard(mu_);
    return layer0_.size();
  }
  /// Compressed on-disk size (Table 2's "Agg. Pack File Size"). Records
  /// are flushed as they are written, so this is also the exact byte
  /// count a checkpoint can truncate the file back to on recovery.
  uint64_t SizeBytes() const;

  /// fdatasyncs the file so every appended record survives a power loss.
  Status Sync();

  /// Closes the writer and reader descriptors without losing any state:
  /// the in-memory index stays, appends lazily reopen the writer, reads
  /// lazily reopen the reader, and Sync() reopens transiently. Used when
  /// a branch is retired so its histories stop pinning fds.
  Status ReleaseFileHandles();

  const std::string& path() const { return path_; }

 private:
  struct Entry {
    uint64_t seq;
    uint64_t nbits;     // bitmap size at this commit
    uint64_t offset;    // payload offset in file
    uint32_t length;    // payload length
  };

  explicit CommitHistory(std::string path) : path_(std::move(path)) {}

  Status WriteRecord(uint8_t layer, uint64_t seq, uint64_t nbits,
                     Slice payload);
  Status ReadPayload(const Entry& e, std::string* out) const;
  /// Replays deltas to produce the raw bitmap bytes at layer-0 position
  /// \p pos (inclusive).
  Status ReplayTo(size_t pos, std::string* bytes) const;

  const std::string path_;

  /// One lock for the whole object: the record indexes, the lazily-opened
  /// reader, and the writer state. Held across the (file-backed) replay a
  /// Checkout performs, which serializes reads of one history — but each
  /// branch (tuple-first) or (branch, segment) pair (hybrid) has its own
  /// history, so only same-branch readers queue here.
  mutable std::mutex mu_;
  std::optional<WritableFile> writer_;
  mutable std::optional<RandomAccessFile> reader_;

  std::vector<Entry> layer0_;
  // layer1_[i] covers layer-0 records [0, (i+1)*kCompositeEvery).
  std::vector<Entry> layer1_;

  /// Set while the write handle is released: SizeBytes answers from the
  /// size captured at release, Sync syncs through a transient descriptor.
  uint64_t released_size_ = 0;
  bool released_ = false;

  // Writer state.
  std::string last_bytes_;        // raw bitmap bytes at the last commit
  std::string composite_base_;    // raw bytes at the last composite boundary
  bool writer_state_valid_ = true;
};

}  // namespace decibel

#endif  // DECIBEL_BITMAP_COMMIT_HISTORY_H_
