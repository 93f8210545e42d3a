#ifndef DECIBEL_WAL_WAL_WRITER_H_
#define DECIBEL_WAL_WAL_WRITER_H_

/// \file wal_writer.h
/// The write-ahead-log writer: thread-safe appends of framed records
/// (wal_format.h) into numbered segment files, with a configurable
/// durability level and leader/follower group commit.
///
/// Sync modes:
///  - kOff:   the owner appends nothing (Decibel skips encoding records
///            altogether); durability comes only from checkpoints, so a
///            crash rolls back to the last one. Sync() is a no-op.
///  - kNone:  records sit in the writer's userspace buffer; fastest, a
///            crash (even a plain process kill) can lose recent records.
///  - kFlush: every Sync() pushes the buffer into the OS page cache; a
///            process kill loses nothing, an OS crash / power loss can.
///  - kFsync: Sync() fdatasyncs; acknowledged records survive power loss.
///            Concurrent committers group-commit: the first waiter
///            becomes the leader and fdatasyncs once for every record
///            written so far, while followers (and fresh appenders —
///            the append lock is not held across the fdatasync) proceed.
///            The active segment carries a zero-filled tail: an Append
///            that would cross it first extends the file by another
///            kZeroExtendBytes of real zeros, so a group-commit fdatasync
///            writes data blocks only, never a new inode size. Sealing a
///            segment (Roll, Close) trims the tail and fdatasyncs the
///            trimmed length before the next segment's directory entry
///            exists, so only the last segment can ever end in zeros —
///            which recovery reads as a torn tail and truncates.
///
/// Segments roll at segment_bytes; rolling fsyncs the directory entry so
/// the new file survives a crash (sync mode permitting). Checkpoints call
/// Roll() explicitly so WAL truncation is whole-segment deletion.
///
/// Failures are sticky: the first failed write, flush, zero-extension or
/// fdatasync poisons the writer, and every later Append, Sync and Roll
/// returns that status. Linux reports a writeback error to only one
/// fdatasync, so a retry that "succeeds" proves nothing about the records
/// the failed one covered; and a failed write may leave part of a frame
/// on disk.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/io.h"
#include "common/result.h"
#include "wal/wal_format.h"

namespace decibel {
namespace wal {

enum class SyncMode : uint8_t { kNone = 0, kFlush = 1, kFsync = 2, kOff = 3 };

/// Parses "off" / "none" / "flush" / "fsync"; false on anything else.
bool ParseSyncMode(const std::string& name, SyncMode* mode);

class Writer {
 public:
  struct Options {
    SyncMode sync_mode = SyncMode::kFlush;
    uint64_t segment_bytes = 16ull << 20;
  };

  /// Opens a writer in \p dir (created if needed) that starts a fresh
  /// segment \p segment_seq and assigns lsns from \p next_lsn. Recovery
  /// never appends to an existing segment — a torn tail stays truncated
  /// and sealed, and the writer continues in a new file.
  static Result<std::unique_ptr<Writer>> Open(const std::string& dir,
                                              const Options& options,
                                              uint64_t next_lsn,
                                              uint64_t segment_seq);

  /// Under kFsync the active segment is zero-extended this many bytes at
  /// a time (more if one frame needs it).
  static constexpr uint64_t kZeroExtendBytes = 1ull << 20;

  /// Appends one framed record and returns its lsn. Thread-safe; the
  /// record is buffered (durability comes from Sync).
  Result<uint64_t> Append(RecordType type, Slice body);

  /// Makes every record up to \p lsn as durable as the sync mode asks.
  Status Sync(uint64_t lsn);

  /// Seals the current segment (SealLocked) and starts the next one.
  /// Callers must have quiesced Append/Sync (the checkpointer's barrier
  /// does). Returns the new segment's seq.
  Result<uint64_t> Roll();

  /// Last assigned lsn (0 if none); the checkpoint boundary.
  uint64_t last_lsn() const;
  /// Next lsn to be assigned.
  uint64_t next_lsn() const;
  /// Current segment sequence number.
  uint64_t segment_seq() const;
  /// Frame bytes appended over this writer's lifetime.
  uint64_t bytes_appended() const;

  Status Close();

  /// Path of segment \p seq under \p dir ("<dir>/<seq 6-digit>.wal").
  static std::string SegmentPath(const std::string& dir, uint64_t seq);

 private:
  Writer(std::string dir, const Options& options, uint64_t next_lsn,
         uint64_t segment_seq)
      : dir_(std::move(dir)),
        options_(options),
        next_lsn_(next_lsn),
        segment_seq_(segment_seq) {}

  /// Opens segment segment_seq_; fsyncs the directory entry in kFsync.
  Status OpenSegment();
  /// Caller holds mu_. Rolls if the active segment is over budget.
  Status MaybeRollLocked();
  /// Caller holds mu_. Seals the active segment (SealLocked) WITHOUT
  /// Close() — a group-commit leader may still be fdatasyncing it
  /// off-lock — and opens the next one. The old fd is closed by the last
  /// shared_ptr holder's destructor.
  Status RollLocked();
  /// Caller holds mu_. Makes the active segment's contents final: a
  /// flush, or under kFsync a trim of the zero tail plus an fdatasync.
  Status SealLocked();
  /// Caller holds mu_. Records \p s as the writer's sticky error if it is
  /// the first failure; returns \p s.
  Status Poison(Status s);

  const std::string dir_;
  const Options options_;

  /// Append state: the active file, lsn counter, rollover. Never held
  /// across an fdatasync.
  mutable std::mutex mu_;
  /// shared_ptr so the group-commit leader can fdatasync a stable handle
  /// after releasing mu_ even if a rollover swaps the active segment.
  std::shared_ptr<WritableFile> file_;
  uint64_t next_lsn_ = 1;
  uint64_t segment_seq_ = 1;
  uint64_t flushed_lsn_ = 0;  ///< highest lsn pushed to the OS
  uint64_t bytes_appended_ = 0;
  std::string frame_;  ///< reused encode scratch
  Status error_;       ///< first I/O failure; poisons every later call

  /// Group-commit state. Lock order: sync_mu_ then mu_ (the leader takes
  /// mu_ briefly to flush; Append never takes sync_mu_).
  mutable std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  uint64_t synced_lsn_ = 0;  ///< highest lsn fdatasynced
  bool sync_active_ = false;
};

}  // namespace wal
}  // namespace decibel

#endif  // DECIBEL_WAL_WAL_WRITER_H_
