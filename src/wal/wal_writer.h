#ifndef DECIBEL_WAL_WAL_WRITER_H_
#define DECIBEL_WAL_WAL_WRITER_H_

/// \file wal_writer.h
/// The write-ahead-log writer: thread-safe appends of framed records
/// (wal_format.h) into numbered segment files, with a configurable
/// durability level and pipelined group commit.
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
///            Concurrent committers group-commit without a leader: a
///            Sync whose lsn an in-flight fdatasync already covers waits
///            for it; any other Sync flushes every record appended so far
///            and starts its own fdatasync at once, overlapping the ones
///            in flight. Appends never wait for these fdatasyncs.
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
/// fdatasync per open file description, so a retry that "succeeds" proves
/// nothing about the records the failed one covered; and a failed write
/// may leave part of a frame on disk. For the same reason overlapping
/// fdatasyncs never share a description: each segment is opened
/// kSyncFiles extra times when it is created, before any append, and
/// every in-flight fdatasync holds one of those descriptions to itself.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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
  /// Under kFsync, at most this many fdatasyncs of one segment run at
  /// once, each through its own open file description; a Sync that finds
  /// every description busy waits for one.
  static constexpr size_t kSyncFiles = 4;

  /// Appends one framed record and returns its lsn. Thread-safe; the
  /// record is buffered (durability comes from Sync).
  Result<uint64_t> Append(RecordType type, Slice body);

  /// Makes every record up to \p lsn as durable as the sync mode asks.
  /// Under kFsync, OK means synced_lsn() >= \p lsn.
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
  /// Highest lsn a group-commit fdatasync has made durable (kFsync).
  uint64_t synced_lsn() const;
  /// Group-commit fdatasyncs issued by Sync (seals not counted), and the
  /// most that were in flight at once.
  uint64_t syncs() const;
  uint64_t syncs_in_flight_max() const;

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
  /// Caller holds mu_. Seals the active segment (SealLocked) and opens
  /// the next one. In-flight syncs keep the old segment's sync files open
  /// until the last of them ends.
  Status RollLocked();
  /// Caller holds mu_. Makes the active segment's contents final: a
  /// flush, or under kFsync a trim of the zero tail plus an fdatasync.
  Status SealLocked();
  /// Caller holds mu_. Records \p s as the writer's sticky error if it is
  /// the first failure; returns \p s.
  Status Poison(Status s);

  const std::string dir_;
  const Options options_;

  /// The sync-only descriptions of one segment (kFsync). Each in-flight
  /// fdatasync takes one from `free` and holds a reference to the set, so
  /// a rolled segment's descriptions close when its last sync ends.
  struct SyncFiles {
    std::vector<RandomWriteFile> files;
    std::vector<RandomWriteFile*> free;
  };

  /// Guards everything below. Never held across a group-commit
  /// fdatasync; sealing a segment fdatasyncs under it.
  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> file_;
  std::shared_ptr<SyncFiles> sync_files_;  ///< the active segment's
  uint64_t next_lsn_ = 1;
  uint64_t segment_seq_ = 1;
  uint64_t flushed_lsn_ = 0;  ///< highest lsn pushed to the OS
  uint64_t bytes_appended_ = 0;
  std::string frame_;  ///< reused encode scratch
  Status error_;       ///< first I/O failure; poisons every later call

  /// Group-commit state. A Sync waits on sync_cv_ while an in-flight
  /// fdatasync covers its lsn or no sync file is free.
  std::condition_variable sync_cv_;
  uint64_t synced_lsn_ = 0;   ///< highest lsn fdatasynced
  uint64_t sync_target_ = 0;  ///< highest lsn any started sync covers
  uint64_t syncs_ = 0;
  uint64_t syncs_in_flight_ = 0;
  uint64_t syncs_in_flight_max_ = 0;
};

}  // namespace wal
}  // namespace decibel

#endif  // DECIBEL_WAL_WAL_WRITER_H_
