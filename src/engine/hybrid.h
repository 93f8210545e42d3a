#ifndef DECIBEL_ENGINE_HYBRID_H_
#define DECIBEL_ENGINE_HYBRID_H_

/// \file hybrid.h
/// The hybrid storage engine (§3.4): data lives in version-first style
/// segment heap files (clustering records with common ancestry), while
/// liveness is tracked tuple-first style — one small branch-oriented
/// bitmap index *local to each segment*, plus a global branch x segment
/// bitmap that maps each branch to the segments holding at least one of
/// its live records. Scans consult the global bitmap to skip irrelevant
/// segments entirely; diffs and merges run the tuple-first bitmap
/// algorithms per segment.
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
/// parallel under the lock order of branch_core.h. The registry lock
/// also guards the segments_ vector, the head_seg_/branch_segments_/
/// dirty_ map shapes and the local indexes' column sets. Scans
/// materialize bitmap copies under the stripe lock, capture per-segment
/// file pointers, and stream without any lock.

#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bitmap/commit_history.h"
#include "engine/bitmap_scan.h"
#include "engine/branch_core.h"
#include "engine/scan_util.h"
#include "storage/heap_file.h"

namespace decibel {

class HybridEngine : public StorageEngine {
 public:
  EngineType type() const override { return EngineType::kHybrid; }
  const Schema& schema() const override { return core_.schema(); }

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
  void DropCaches() override { core_.DropCaches(); }
  EngineStats Stats() const override;

 private:
  template <typename Engine>
  friend Result<std::unique_ptr<StorageEngine>> OpenEngine(
      const Schema& schema, const EngineOptions& options);
  /// Directory under options.directory holding the commit histories.
  static constexpr const char* kSubdir = "commits";

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
      : core_("hybrid", schema, options,
              [this](BranchId b) { return RebuildPkIndex(b); }) {}

  Status InitFresh();
  Status LoadExisting();
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
  /// \p commit, in ascending segment order. Caller holds the registry.
  Status CommitColumns(CommitId commit,
                       std::vector<std::pair<uint32_t, Bitmap>>* out);
  /// Registers branch \p b and builds its pk index from its local
  /// bitmaps. Caller holds the registry unique.
  Status RebuildPkIndex(BranchId b);

  BranchCore core_;
  /// The lock-order leaf (branch_core.h): the histories_/history_segs_/
  /// commit_branch_/inherits_ shapes.
  mutable std::mutex commit_mu_;

  std::vector<std::unique_ptr<Segment>> segments_;
  std::unordered_map<BranchId, uint32_t> head_seg_;
  /// The global branch-segment bitmap: row per branch, bit per segment.
  std::unordered_map<BranchId, Bitmap> branch_segments_;

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
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_HYBRID_H_
