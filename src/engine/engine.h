#ifndef DECIBEL_ENGINE_ENGINE_H_
#define DECIBEL_ENGINE_ENGINE_H_

/// \file engine.h
/// The common contract implemented by Decibel's three versioned storage
/// engines (§3): tuple-first, version-first, and hybrid. The Decibel
/// facade (core/decibel.h) owns the version graph and drives engines with
/// already-allocated branch and commit identifiers; engines own the
/// physical layout, the scans and the merge walks.
///
/// Data semantics (§2.2): a dataset is an unordered collection of records
/// identified by primary key. Update is an upsert (a new physical copy of
/// the record is appended; the old copy stays visible to historical
/// commits). Delete hides the key from the branch head but never removes
/// bytes.
///
/// Reads go through one composable surface: NewScan(ScanSpec) returns a
/// ScanCursor over a branch head, a commit, several heads at once, or a
/// by-key diff, with predicate/projection/limit pushed into the engine
/// scan loops (scan_spec.h); Get(branch, pk) is the point lookup the
/// per-branch pk index (pk_index.h) makes O(1). The kDiff view is the only
/// head-to-head diff: rows of a whose key b lacks (Table 1 query 2); the
/// other side is a second scan with the branches swapped. Changes between
/// commits, and the merges built on them, come from MergeWalk.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bitmap/bitmap_index.h"
#include "common/result.h"
#include "engine/merge_spec.h"
#include "engine/scan_spec.h"
#include "storage/record.h"
#include "storage/schema.h"
#include "txn/write_batch.h"
#include "version/types.h"

namespace decibel {

enum class EngineType {
  kTupleFirst,
  kVersionFirst,
  kHybrid,
};

const char* EngineTypeName(EngineType type);

/// engine.meta format header: a fixed magic plus a version number so a
/// meta written by an incompatible layout fails with a clear
/// "unsupported version" error instead of a misleading Corruption from
/// half-way through the decode. v2 added per-segment checkpoint state
/// and history sizes; v3 appends per-segment zone-map stats blobs
/// (HeapFile::EncodeStats) in the segmented engines; v4 appends hybrid's
/// inherited-column registry (branch -> base commit); v1 metas
/// (pre-durability) had neither the header nor those fields and cannot
/// be opened.
inline constexpr uint32_t kEngineMetaMagic = 0x4d454244;  // "DBEM"
inline constexpr uint32_t kEngineMetaVersion = 4;

/// Appends the engine.meta format header to \p meta.
void PutEngineMetaHeader(std::string* meta);
/// Consumes and validates the format header at the front of \p input.
/// InvalidArgument (naming \p engine_name) on a missing header or an
/// unsupported version.
Status CheckEngineMetaHeader(Slice* input, const char* engine_name);

/// Write-lock stripes per engine: branches on different stripes
/// (stripe = branch % kWriteStripes) commit concurrently. Also the number
/// of heap-file shards a fresh tuple-first engine splits its shared heap
/// into (a reopened heap keeps the count it was created with). On 4
/// cores, 4 writers on disjoint branches commit 3.0-3.6x the txns/s of
/// one without a log and 2.1-2.4x with it (bench/concurrent_txn.cc).
inline constexpr uint32_t kWriteStripes = 32;

struct EngineOptions {
  /// Directory this engine stores its files under (created if absent).
  std::string directory;
  uint64_t page_size = 1 << 20;           ///< paper: 4 MB
  uint64_t buffer_pool_bytes = 64 << 20;  ///< read-cache budget
  /// Bitmap layout for tuple-first / hybrid (§5: branch-oriented default).
  BitmapOrientation orientation = BitmapOrientation::kBranchOriented;
  /// Non-empty: open the engine at the named checkpoint — data files are
  /// rolled back to exactly the state the checkpoint captured, so a WAL
  /// tail can be replayed on top. Empty: initialize a fresh engine,
  /// overwriting any data files already in the directory.
  std::string checkpoint_tag;
  /// Seal full heap pages through the adaptive columnar/LZ page codec
  /// (storage format v2's non-raw page formats). Scans stay byte-identical
  /// either way; predicates evaluate on the compressed strips first.
  bool compress_pages = false;
};

// MergePolicy, MergeResult and the merge-walk types live in
// engine/merge_spec.h (included above): the merge surface is shared
// semantics over a per-engine walk primitive, exactly as scan_spec.h is
// shared pushdown over per-engine cursors.

struct EngineStats {
  uint64_t data_bytes = 0;          ///< heap/segment file bytes on disk
  /// Heap bytes of the bitmaps plus the pk indexes' slot arrays
  /// (PkIndex::MemoryBytes).
  uint64_t index_memory_bytes = 0;
  uint64_t commit_store_bytes = 0;  ///< aggregate commit-history file size
  uint64_t num_segments = 0;
  uint64_t num_records = 0;         ///< physical record versions stored
  /// Lifetime scan-work totals flushed by this engine's cursors (see
  /// ScanCounters): live rows examined and their projected bytes.
  uint64_t rows_scanned = 0;
  uint64_t bytes_scanned = 0;
  /// Stored bytes actually pinned from pages (post-skip, post-compression)
  /// and the scan units zone maps let cursors step over entirely.
  uint64_t bytes_read = 0;
  uint64_t segments_skipped = 0;
  uint64_t pages_skipped = 0;
  /// The engine's buffer pool: lifetime page hits and misses (a miss is
  /// one page load) and the decoded page bytes resident now.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_resident_bytes = 0;
};

class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  virtual EngineType type() const = 0;
  virtual const Schema& schema() const = 0;

  // ------------------------------------------------------ version control

  /// Registers \p child branched from \p parent at \p base_commit. When
  /// \p at_head is true the parent's current committed state is the base
  /// (the facade auto-commits dirty branches before branching); otherwise
  /// the engine restores the historical commit.
  virtual Status CreateBranch(BranchId child, BranchId parent,
                              CommitId base_commit, bool at_head) = 0;

  /// Snapshots \p branch's current state as \p commit_id (§2.2.3 Commit).
  virtual Status Commit(BranchId branch, CommitId commit_id) = 0;

  /// Materializes whatever internal state is needed to read \p commit
  /// and drops it again — the checkout cost Table 2 measures.
  virtual Status Checkout(CommitId commit) = 0;

  // ------------------------------------------------------------- mutation

  /// The single write path into an engine: applies a staged batch of
  /// Insert/Update/Delete operations to \p branch in one pass, updating
  /// the heap file, the pk index and the bitmaps once per batch instead
  /// of once per record. The facade calls this under the branch's
  /// exclusive lock; per-record mutations arrive as one-op batches.
  ///
  /// Every engine validates the batch's deletes against its pk index up
  /// front, so a delete of an absent key fails with NotFound before any
  /// operation is applied (version-first then appends a tombstone per
  /// valid delete, §3.3). A batch whose new record locations would not
  /// fit the pk index's packed form (PackedLoc) fails with OutOfRange,
  /// also before any operation is applied.
  virtual Status ApplyBatch(BranchId branch, const WriteBatch& batch) = 0;

  // -------------------------------------------------------------- queries

  /// The one read entry point: serves the spec's view (branch head,
  /// commit, multi-branch, by-key diff) with the predicate, projection
  /// and limit evaluated inside the engine's scan machinery. Rejects
  /// ScanView::kHeads (the facade resolves it to kMulti first). A view
  /// naming a branch the engine does not know is NotFound.
  virtual Result<std::unique_ptr<ScanCursor>> NewScan(
      const ScanSpec& spec) = 0;

  /// Point lookup of \p pk at the head of \p branch, O(1) through the
  /// branch's pk index on every engine. NotFound when the key is not live
  /// in the branch.
  virtual Result<Record> Get(BranchId branch, int64_t pk) = 0;

  /// The merge/diff substrate (§2.2.3): streams every primary key whose
  /// record state differs between commits \p left and \p right, with the
  /// key's state at both commits and at ancestor \p base, in ascending pk
  /// order. A null ref means the key is not live at that commit. Refs are
  /// valid only for the duration of the callback. Engines may emit keys
  /// whose two sides turn out byte-equal (the shared staging skips them);
  /// they must never *omit* a key whose states differ. All merge and diff
  /// semantics live on top in merge_spec.cc — engines compete on the cost
  /// of this walk, never on its answers.
  virtual Status MergeWalk(CommitId left, CommitId right, CommitId base,
                           const MergeWalkCallback& cb,
                           MergeWalkStats* stats) = 0;

  /// Releases the file descriptors pinned on behalf of \p branch (its
  /// private segments' heap files, its commit-history files). Called when
  /// the branch is retired: the data stays on disk and stays readable —
  /// every handle reopens lazily on the next access — but a retired
  /// branch no longer costs open fds. Without this, the agentic workload
  /// (fork, work, merge, retire, thousands of times) exhausts the
  /// process's descriptor limit. Unknown branches are a no-op.
  virtual Status ReleaseBranch(BranchId /*branch*/) { return Status::OK(); }

  // -------------------------------------------------------- maintenance

  /// Checkpoints the engine under \p tag: data files are flushed (and, if
  /// \p sync, fsynced) and a tagged metadata snapshot is written that
  /// records exactly how many bytes of each file belong to the
  /// checkpoint. Reopening with EngineOptions::checkpoint_tag == tag
  /// restores this state bit-for-bit, discarding anything written later.
  /// The caller must quiesce writers for the duration of the call.
  virtual Status Checkpoint(const std::string& tag, bool sync) = 0;
  /// Deletes the tagged metadata written by Checkpoint(tag); data files
  /// are shared across checkpoints and stay.
  virtual Status RemoveCheckpoint(const std::string& tag) = 0;
  /// Evicts the buffer pool so the next query starts cold (§5 flushes OS
  /// caches before each measured operation; this is the unprivileged
  /// equivalent for our own caches).
  virtual void DropCaches() = 0;
  virtual EngineStats Stats() const = 0;
};

/// Instantiates an engine of \p type rooted at options.directory.
Result<std::unique_ptr<StorageEngine>> MakeEngine(EngineType type,
                                                  const Schema& schema,
                                                  const EngineOptions& options);

}  // namespace decibel

#endif  // DECIBEL_ENGINE_ENGINE_H_
