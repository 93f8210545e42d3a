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
/// disjoint branches share no segment file and proceed in parallel under
/// the lock order of branch_core.h. The registry lock also guards the
/// segments_ vector and the head_seg_ map shape; a branch's stripe guards
/// its head-segment tail. Cursors capture HeapFile pointers at open
/// (Segment objects are stable; only the vector itself reallocates) plus
/// per-segment bounds, so established scans stream without any lock and
/// never observe a half-applied batch (HeapFile publishes num_records
/// after the bytes).

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/branch_core.h"
#include "engine/scan_util.h"
#include "storage/heap_file.h"

namespace decibel {

class VersionFirstEngine : public StorageEngine {
 public:
  EngineType type() const override { return EngineType::kVersionFirst; }
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
  /// Version-first keeps no files outside options.directory.
  static constexpr const char* kSubdir = nullptr;

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

  VersionFirstEngine(const Schema& schema, const EngineOptions& options)
      : core_("version-first", schema, options, [this](BranchId b) {
          return RebuildPkIndex(b, RootForBranch(b));
        }) {}

  Status InitFresh();
  Status LoadExisting();
  std::string SegmentPath(uint32_t seg) const;
  /// Serializes the engine meta (schema, segment graph with per-segment
  /// checkpoint state, heads, commits). Caller holds the registry unique.
  std::string EncodeMeta();
  Result<uint32_t> NewSegment(BranchId owner, std::vector<ParentLink> parents);
  /// The head root of a known branch. Caller holds the registry (shared
  /// or unique) and, for a batch-aligned snapshot, the branch's stripe.
  Root RootForBranch(BranchId branch) const;
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

  /// Registers \p branch and builds its pk index from its ancestry (one
  /// winner-table pass). Caller holds the registry unique.
  Status RebuildPkIndex(BranchId branch, const Root& root);
  /// Replaces \p idx's entries with \p table's live (non-tombstone)
  /// winners.
  static Status FillPkIndex(const WinnerTable& table, PkIndex* idx);

  BranchCore core_;
  /// The lock-order leaf (branch_core.h): the commits_ map.
  mutable std::mutex commit_mu_;

  std::vector<std::unique_ptr<Segment>> segments_;
  std::unordered_map<BranchId, uint32_t> head_seg_;
  std::unordered_map<CommitId, Root> commits_;

  class BranchScanCursor;
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_VERSION_FIRST_H_
