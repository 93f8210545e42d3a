#ifndef DECIBEL_ENGINE_HYBRID_H_
#define DECIBEL_ENGINE_HYBRID_H_

/// \file hybrid.h
/// The hybrid storage engine (§3.4): data lives in version-first style
/// segment heap files (clustering records with common ancestry), while
/// liveness is tracked tuple-first style — one small branch-oriented
/// bitmap index *local to each segment*, plus a global branch x segment
/// bitmap that maps each branch to the segments holding at least one of
/// its live records. Scans consult the global bitmap to skip irrelevant
/// segments entirely (and may scan segments in parallel); diffs and merges
/// run the tuple-first bitmap algorithms per segment.
///
/// Segments are either *head* segments (the working tail of one branch)
/// or *internal* segments (frozen at the first branch taken from them).
///
/// Commit storage is one history file per (branch, segment) the branch
/// *wrote* (§5.3, Table 2). A new branch inherits its parent's columns by
/// reference: until it first dirties a segment, its committed column
/// there is "the column of its base commit", recorded once per branch in
/// the inherited-column registry (inherits_) rather than copied into a
/// history file per ancestor segment. ResolveColumns locates a commit's
/// columns by walking that chain — the commit's own branch histories
/// first, then its base commit's branch, and so on to master — so a fork
/// copies no history and a commit writes only the segments it changed. The
/// in-memory live columns are still cloned at fork (CloneBranch), so
/// scans, Get and the pk index never resolve anything.
///
/// Concurrency: a branch's writes touch only its own head-segment tail,
/// its own pk index, and its own columns of the per-segment local
/// bitmaps (a column is private to its branch even when the segment is
/// shared with siblings), so writers on disjoint branches proceed in
/// parallel. The lock hierarchy is registry_mu_ (the segments_ vector,
/// head_seg_/branch_segments_/pk_index_/dirty_ map shapes, and the local
/// indexes' column sets; writers take it shared, CreateBranch/Checkpoint
/// take it unique) -> stripe locks (branch % kWriteStripes) ->
/// commit_mu_ (the commit registries, a leaf). Scans materialize bitmap
/// copies under the stripe lock, capture per-segment file pointers, and
/// stream without any lock.

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bitmap/commit_history.h"
#include "common/stripe_lock.h"
#include "engine/bitmap_scan.h"
#include "engine/engine.h"
#include "engine/scan_util.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace decibel {

class HybridEngine : public StorageEngine {
 public:
  static Result<std::unique_ptr<HybridEngine>> Make(
      const Schema& schema, const EngineOptions& options);

  EngineType type() const override { return EngineType::kHybrid; }
  const Schema& schema() const override { return schema_; }

  Status CreateBranch(BranchId child, BranchId parent, CommitId base_commit,
                      bool at_head) override;
  Status Commit(BranchId branch, CommitId commit_id) override;
  Status Checkout(CommitId commit) override;

  Status ApplyBatch(BranchId branch, const WriteBatch& batch) override;

  Result<std::unique_ptr<ScanCursor>> NewScan(const ScanSpec& spec) override;
  Result<Record> Get(BranchId branch, int64_t pk) override;
  Status MergeWalk(CommitId left, CommitId right, CommitId base,
                   const MergeWalkCallback& cb, MergeWalkStats* stats) override;
  Status ReleaseBranch(BranchId branch) override;

  Status Checkpoint(const std::string& tag, bool sync) override;
  Status RemoveCheckpoint(const std::string& tag) override;
  void DropCaches() override { pool_.EvictAll(); }
  EngineStats Stats() const override;

 private:
  struct Segment {
    uint32_t id = 0;
    /// Branch whose head this is (meaningful while is_head).
    BranchId owner = kInvalidBranch;
    bool is_head = false;
    std::unique_ptr<HeapFile> file;
    /// Local bitmap index: one column per branch with records inherited
    /// from this segment (§3.4).
    BranchOrientedIndex local;
  };

  /// Physical record location.
  struct Loc {
    uint32_t seg = 0;
    uint64_t idx = 0;
  };

  HybridEngine(const Schema& schema, const EngineOptions& options)
      : schema_(schema),
        options_(options),
        pool_(options.buffer_pool_bytes),
        stripes_(kWriteStripes) {}

  Status InitFresh();
  Status LoadExisting();
  std::string MetaPath(const std::string& tag) const;
  std::string SegmentPath(uint32_t seg) const;
  std::string HistoryPath(BranchId branch, uint32_t seg) const;
  /// Serializes the engine meta (schema, segments with local indexes and
  /// checkpoint state, heads, branch-segment bitmap, commit and history
  /// registries with history byte sizes, inherited columns, dirty
  /// segments). Caller holds the registry unique.
  std::string EncodeMeta();

  /// Caller holds registry_mu_ unique (grows segments_ and the maps).
  Result<uint32_t> NewHeadSegment(BranchId owner);
  /// Whether (branch, seg) has a history in the registry. Caller holds
  /// commit_mu_.
  bool HistoryKnownLocked(BranchId branch, uint32_t seg) const;
  /// The (branch, segment) commit history, creating it on first use.
  /// Takes commit_mu_ internally for the registry maps.
  Result<CommitHistory*> HistoryFor(BranchId branch, uint32_t seg);
  /// Commit body; caller holds registry_mu_ (shared or unique) and the
  /// branch's stripe. Takes commit_mu_ internally.
  Status CommitImpl(BranchId branch, CommitId commit_id);
  /// The kDiff walk: hands \p emit every row of \p a whose key \p b
  /// lacks. NotFound when either branch is unknown.
  Status DiffRows(BranchId a, BranchId b, const DiffRowSink& emit);
  /// dirty_ entries are pre-created when the branch is created, so this
  /// only mutates the per-branch set — safe under the branch's stripe.
  void MarkDirty(BranchId branch, uint32_t seg) {
    dirty_[branch].insert(seg);
  }
  /// Segments whose bit is set in branch \p b's row of the global bitmap.
  std::vector<uint32_t> SegmentsOf(BranchId b) const;
  /// Where a commit's column in one segment is stored: the history of
  /// the first branch on the commit's base-commit chain that wrote the
  /// segment, at that history's commit \p seq. Equal refs are equal
  /// columns, known without reading either.
  struct ColumnRef {
    uint32_t seg = 0;
    CommitHistory* history = nullptr;
    uint64_t seq = 0;
    bool operator==(const ColumnRef&) const = default;
  };
  /// Locates every column of \p commit, in ascending segment order,
  /// resolving inherited columns through the base-commit chain (see
  /// inherits_). Reads no history payload.
  Status ResolveColumns(CommitId commit, std::vector<ColumnRef>* out);
  /// Restores the per-segment columns of \p commit's branch as of
  /// \p commit, in ascending segment order.
  Status CommitColumns(CommitId commit,
                       std::vector<std::pair<uint32_t, Bitmap>>* out);
  Status RebuildPkIndex(BranchId b);

  Schema schema_;
  EngineOptions options_;
  BufferPool pool_;
  /// Lifetime scan-work totals (EngineStats::rows_scanned/bytes_scanned);
  /// mutable so cursors over a const engine can flush into it.
  mutable ScanCounters scan_counters_;

  /// Shape of segments_, the branch maps, and the local indexes' column
  /// sets: writers take it shared, CreateBranch/Checkpoint take
  /// it unique. Ordered before the stripe locks.
  mutable std::shared_mutex registry_mu_;
  /// Per-branch write serialization; see file comment for the hierarchy.
  mutable StripeLocks stripes_;
  /// Leaf lock: histories_/history_segs_/commit_branch_/inherits_ shape.
  /// Never acquire another engine lock while holding it.
  mutable std::mutex commit_mu_;

  std::vector<std::unique_ptr<Segment>> segments_;
  std::unordered_map<BranchId, uint32_t> head_seg_;
  /// The global branch-segment bitmap: row per branch, bit per segment.
  std::unordered_map<BranchId, Bitmap> branch_segments_;
  using PkIndex = std::unordered_map<int64_t, Loc>;
  std::unordered_map<BranchId, PkIndex> pk_index_;

  /// Commit storage: one history file per (branch, segment) (§5.3).
  std::unordered_map<uint64_t, std::unique_ptr<CommitHistory>> histories_;
  std::unordered_map<BranchId, std::vector<uint32_t>> history_segs_;
  /// Per branch, the segments whose live column it changed since its
  /// last commit: the only columns that commit writes. Persisted in
  /// engine.meta (a checkpoint can capture uncommitted writes), and a
  /// branch forked at head starts with its parent's set.
  std::unordered_map<BranchId, std::unordered_set<uint32_t>> dirty_;
  std::unordered_map<CommitId, BranchId> commit_branch_;
  /// Inherited-column registry: branch -> the commit it was created from.
  /// A branch's committed column in a segment whose history has no commit
  /// at or before the one asked for is its base commit's column there.
  /// Master has no entry. Guarded by commit_mu_ like the other commit
  /// registries; persisted in engine.meta.
  std::unordered_map<BranchId, CommitId> inherits_;

  /// Builds the scan units for \p spec's view, dropping segments whose
  /// file-level zone map rules out the predicate entirely (each drop adds
  /// one to *\p segments_skipped; see DropUnmatchableParts). The parts'
  /// file pointers stay valid without the registry lock because Segment
  /// objects are stable; only the vector itself reallocates as branches
  /// appear.
  Result<std::vector<ScanPart>> BuildScanParts(const ScanSpec& spec,
                                               uint64_t* segments_skipped);
  Result<std::unique_ptr<ScanCursor>> ParallelScan(
      std::vector<ScanPart> parts, uint64_t segments_skipped,
      const ScanSpec& spec, int threads);
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_HYBRID_H_
