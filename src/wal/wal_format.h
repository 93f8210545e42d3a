#ifndef DECIBEL_WAL_WAL_FORMAT_H_
#define DECIBEL_WAL_WAL_FORMAT_H_

/// \file wal_format.h
/// On-disk format of the write-ahead log.
///
/// A WAL segment (wal/<seq>.wal) is a sequence of framed records:
///
///   len u32 | masked_crc u32 | payload (len bytes)
///
/// where the CRC-32 covers the payload and is masked (common/crc32.h) so
/// payloads that themselves contain CRCs stay checkable. The payload is
///
///   lsn varint64 | type u8 | body
///
/// Log sequence numbers increase by one per record across segment
/// boundaries; recovery replays every record with lsn greater than the
/// manifest's checkpoint_lsn and stops cleanly at the first frame that is
/// truncated or fails its CRC (a torn tail — everything after it was
/// never acknowledged under fsync durability).
///
/// Under kFsync the active segment also ends in a zero-filled region past
/// its last frame (see wal_writer.h). A zero length field is never a
/// valid frame, so the reader sees those zeros as a torn tail too, and
/// recovery truncates them with it. Sealed segments are trimmed to their
/// last frame before the next segment exists, so zeros can only ever
/// trail the last segment.
///
/// One record type exists per facade mutation that must survive a crash:
/// kBatch (ApplyBatch), kCommit (Commit/EnsureCommitted), kBranch
/// (Branch/BranchAt) and kMerge. Bodies carry exactly the identifiers the
/// original operation was assigned, so replay is deterministic: the
/// version graph re-applies ids idempotently (VersionGraph::ReplayCommit/
/// ReplayBranch) and the engines — rolled back to the checkpoint — see
/// each post-checkpoint operation exactly once.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "engine/engine.h"
#include "txn/write_batch.h"
#include "version/types.h"

namespace decibel {
namespace wal {

/// Frame header: len u32 + masked_crc u32.
inline constexpr size_t kFrameHeaderSize = 8;
/// Sanity bound on one record's payload (a batch body is bounded by the
/// batch arena, itself bounded by memory; 1 GiB rejects garbage lengths
/// long before allocation).
inline constexpr uint32_t kMaxPayloadSize = 1u << 30;

enum class RecordType : uint8_t {
  kBatch = 1,
  kCommit = 2,
  kBranch = 3,
  kMerge = 4,
  kRetire = 5,
};

/// Appends the frame (header + payload) for \p body to \p dst.
void EncodeFrame(std::string* dst, uint64_t lsn, RecordType type, Slice body);

/// A decoded frame: the payload's lsn/type plus its body bytes (a view
/// into the reader's buffer).
struct FrameView {
  uint64_t lsn = 0;
  RecordType type = RecordType::kBatch;
  Slice body;
};

// ---------------------------------------------------------------- bodies

/// kBatch body: branch | record_size | nops | per-op (kind u8, then a
/// zigzag pk for deletes or record_size raw bytes for inserts/updates).
void EncodeBatchBody(std::string* dst, BranchId branch,
                     const WriteBatch& batch);
/// Decodes into \p batch (cleared first). \p record_size is validated
/// against the batch's schema.
Status DecodeBatchBody(Slice body, BranchId* branch, WriteBatch* batch);

/// kCommit body: branch | commit | parents.
struct CommitBody {
  BranchId branch = kInvalidBranch;
  CommitId commit = kInvalidCommit;
  std::vector<CommitId> parents;
};
void EncodeCommitBody(std::string* dst, const CommitBody& b);
Status DecodeCommitBody(Slice body, CommitBody* out);

/// kBranch body: everything CreateBranch needs on both the graph and the
/// engine side.
struct BranchBody {
  BranchId child = kInvalidBranch;
  std::string name;
  CommitId base = kInvalidCommit;
  BranchId parent_branch = kInvalidBranch;
  bool at_head = true;
  CommitId head = kInvalidCommit;
};
void EncodeBranchBody(std::string* dst, const BranchBody& b);
Status DecodeBranchBody(Slice body, BranchBody* out);

/// kMerge body: the merge inputs, the graph parents of the merge commit,
/// and the *resolved* write batch the merge staged (a kBatch body for
/// the 'into' branch as trailing bytes). Replay re-registers the commit
/// and applies the carried batch — no merge re-execution, so recovery is
/// deterministic even for callback-resolved merges.
struct MergeBody {
  BranchId into = kInvalidBranch;
  BranchId from = kInvalidBranch;
  CommitId lca = kInvalidCommit;
  CommitId commit = kInvalidCommit;
  MergePolicy policy = MergePolicy::kTwoWayLeft;
  std::vector<CommitId> parents;
  /// The staged ops, encoded with EncodeBatchBody (decode with
  /// DecodeBatchBody against the database schema).
  std::string batch_body;
};
void EncodeMergeBody(std::string* dst, const MergeBody& b);
Status DecodeMergeBody(Slice body, MergeBody* out);

/// kRetire body: the branch soft-retired by Decibel::RetireBranch (its
/// active flag lives only in the graph, which durable recovery rebuilds
/// from the checkpointed graph + WAL — so the retire itself must log).
void EncodeRetireBody(std::string* dst, BranchId branch);
Status DecodeRetireBody(Slice body, BranchId* out);

}  // namespace wal
}  // namespace decibel

#endif  // DECIBEL_WAL_WAL_FORMAT_H_
