#ifndef DECIBEL_ENGINE_VERSION_FIRST_H_
#define DECIBEL_ENGINE_VERSION_FIRST_H_

/// \file version_first.h
/// The version-first storage engine (§3.3): each branch appends its local
/// modifications to its own head *segment file*; a segment records the
/// (parent segment, byte offset) branch points it inherits from, and a
/// chain of such files constitutes a branch's full lineage. Commits are
/// (segment, offset) pairs in an external structure. Scans walk the
/// ancestry newest-to-oldest suppressing already-seen keys; multi-branch
/// scans and diffs materialize pk -> (segment, offset) "winner" hash
/// tables in a first pass (§3.3 Multi-branch Scan), which is where
/// version-first pays its price on cross-version queries.
///
/// Merge note: merges are staged by the shared merge_spec.cc machinery
/// over MergeWalk and executed as an ordinary WriteBatch against the
/// 'into' head, which *materializes* every adopted or reconciled record
/// (and tombstone) into the branch's own chain. Pure scan-order
/// precedence cannot express "take the union of non-conflicting updates
/// from both sides" in every topology, so materialization is what keeps
/// the result independent of segment tie-breaks. Multi-parent segments
/// written by older layouts are still scanned correctly. See DESIGN.md.
///
/// Concurrency: appends go to per-branch head segments, so writers on
/// disjoint branches share no segment file and proceed in parallel. The
/// lock hierarchy is registry_mu_ (the segments_ vector and head_seg_ map
/// shape; writers take it shared, CreateBranch/Checkpoint — which grow
/// the registry — take it unique) -> stripe locks (branch %
/// kWriteStripes; the branch's head-segment tail) -> commit_mu_ (the
/// commits_ map, a leaf). Cursors capture HeapFile pointers at open
/// (Segment objects are stable; only the vector itself reallocates) plus
/// per-segment bounds, so established scans stream without any lock and
/// never observe a half-applied batch (HeapFile publishes num_records
/// after the bytes).

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stripe_lock.h"
#include "engine/engine.h"
#include "engine/scan_util.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace decibel {

class VersionFirstEngine : public StorageEngine {
 public:
  static Result<std::unique_ptr<VersionFirstEngine>> Make(
      const Schema& schema, const EngineOptions& options);

  EngineType type() const override { return EngineType::kVersionFirst; }
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
  /// Visibility window into a parent segment: records [0, bound) of
  /// segment \p seg are inherited.
  struct ParentLink {
    uint32_t seg = 0;
    uint64_t bound = 0;
  };

  struct Segment {
    uint32_t id = 0;
    BranchId owner = kInvalidBranch;
    std::vector<ParentLink> parents;  ///< priority order, strongest first
    std::unique_ptr<HeapFile> file;
  };

  /// A version root: everything visible from records [0, bound) of \p seg
  /// plus its inherited ancestry.
  struct Root {
    uint32_t seg = 0;
    uint64_t bound = 0;
  };

  /// One step of a scan: read records [0, bound) of segment, newest first.
  struct ScanStep {
    uint32_t seg = 0;
    uint64_t bound = 0;
  };

  /// Location of a key's winning record version for one root.
  struct Winner {
    uint32_t seg = 0;
    uint64_t idx = 0;
    uint32_t rank = 0;   // position of seg in the root's scan order
    bool tombstone = false;
  };
  using WinnerTable = std::unordered_map<int64_t, Winner>;

  /// Physical record location, for the per-branch pk index.
  struct Loc {
    uint32_t seg = 0;
    uint64_t idx = 0;
  };
  using PkIndex = std::unordered_map<int64_t, Loc>;

  VersionFirstEngine(const Schema& schema, const EngineOptions& options)
      : schema_(schema),
        options_(options),
        pool_(options.buffer_pool_bytes),
        stripes_(kWriteStripes) {}

  Status InitFresh();
  Status LoadExisting();
  std::string MetaPath(const std::string& tag) const;
  std::string SegmentPath(uint32_t seg) const;
  /// Serializes the engine meta (schema, segment graph with per-segment
  /// checkpoint state, heads, commits). Caller holds the registry unique.
  std::string EncodeMeta();
  Result<uint32_t> NewSegment(BranchId owner, std::vector<ParentLink> parents);
  /// Commit body; caller holds registry_mu_ (shared or unique). Takes
  /// commit_mu_ internally for the commits_ write.
  Status CommitImpl(BranchId branch, CommitId commit_id);
  /// Caller holds registry_mu_ (shared or unique).
  Result<Root> RootForBranch(BranchId branch) const;
  /// Takes commit_mu_ internally; safe without registry_mu_.
  Result<Root> RootForCommit(CommitId commit) const;

  /// Children-before-parents scan order for a root, tie-broken by parent
  /// priority ("version-first scans the version tree to determine the
  /// order in which it should read segment files", §3.3).
  std::vector<ScanStep> ComputeScanOrder(const Root& root) const;

  /// Pass 1 of the paper's two-pass machinery: one reverse pass over the
  /// union of the roots' ancestries, producing a winner table per root.
  /// \p bytes_scanned (optional) accumulates records * record_size.
  Status BuildWinnerTables(const std::vector<Root>& roots,
                           std::vector<WinnerTable>* tables,
                           uint64_t* bytes_scanned) const;

  /// Reads record \p idx of segment \p seg into \p buf.
  Status FetchRecord(uint32_t seg, uint64_t idx, std::string* buf) const;

  /// The kDiff walk: hands \p emit every row of \p a whose key \p b
  /// lacks. NotFound when either branch is unknown.
  Status DiffRows(BranchId a, BranchId b, const DiffRowSink& emit);

  /// Rebuilds \p branch's pk index from its ancestry (one winner-table
  /// pass). Caller holds registry_mu_ unique.
  Status RebuildPkIndex(BranchId branch, const Root& root);

  Schema schema_;
  EngineOptions options_;
  BufferPool pool_;
  /// Lifetime scan-work totals (EngineStats::rows_scanned/bytes_scanned);
  /// mutable so cursors over a const engine can flush into it.
  mutable ScanCounters scan_counters_;

  /// Shape of segments_ and head_seg_: ApplyBatch/Commit/scan-open take
  /// it shared, CreateBranch/Merge/Checkpoint take it unique. Ordered before
  /// the stripe locks.
  mutable std::shared_mutex registry_mu_;
  /// Per-branch write serialization (a branch's head-segment tail has a
  /// single writer at a time); see file comment for the hierarchy.
  mutable StripeLocks stripes_;
  /// Leaf lock: the commits_ map. Never acquire another engine lock while
  /// holding it.
  mutable std::mutex commit_mu_;

  std::vector<std::unique_ptr<Segment>> segments_;
  std::unordered_map<BranchId, uint32_t> head_seg_;
  std::unordered_map<CommitId, Root> commits_;
  /// pk -> live location at each branch head, making Get a point lookup
  /// instead of an ancestry walk (the fix for §3.3's O(history) reads).
  /// Memory-only: rebuilt on open from one multi-root winner-table pass.
  /// A branch's entry is written under its stripe lock (ApplyBatch) or
  /// the unique registry lock (CreateBranch, LoadExisting).
  std::unordered_map<BranchId, PkIndex> pk_index_;

  class BranchScanCursor;
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_VERSION_FIRST_H_
