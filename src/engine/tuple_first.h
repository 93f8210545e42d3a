#ifndef DECIBEL_ENGINE_TUPLE_FIRST_H_
#define DECIBEL_ENGINE_TUPLE_FIRST_H_

/// \file tuple_first.h
/// The tuple-first storage engine (§3.2): every tuple that has ever
/// existed in any version lives in one shared global index space; a
/// bitmap index with one bit per (tuple, branch) records liveness.
/// Branching clones a bitmap column; commits snapshot a column into a
/// per-branch XOR-delta commit history; diffs and multi-branch scans are
/// bitmap algebra; single-branch scans pay for the interleaving of
/// branches in the shared file.
///
/// Concurrency: writers on disjoint branches proceed in parallel under the
/// lock order of branch_core.h. A branch's stripe guards its bitmap column
/// and its heap-file shard's tail as well as its pk index; under the
/// tuple-oriented layout bitmap writes and reads take every stripe (see
/// StripeGuard). MergeWalk works off committed bitmap snapshots and takes
/// no stripe. Readers materialize a bitmap snapshot under the stripes,
/// snapshot the heap's extent mapping, and then stream without any lock.

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "bitmap/commit_history.h"
#include "engine/branch_core.h"
#include "engine/scan_util.h"
#include "storage/striped_heap.h"

namespace decibel {

class TupleFirstEngine : public StorageEngine {
 public:
  EngineType type() const override { return EngineType::kTupleFirst; }
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

  /// Reconstructs the bitmap snapshotted at \p commit (exposed for tests
  /// and the bitmap micro-benchmarks).
  Result<Bitmap> CommitBitmap(CommitId commit);

 private:
  template <typename Engine>
  friend Result<std::unique_ptr<StorageEngine>> OpenEngine(
      const Schema& schema, const EngineOptions& options);
  /// Directory under options.directory holding the commit histories.
  static constexpr const char* kSubdir = "commits";

  /// Holds the write stripes of a set of branches — or every stripe when
  /// the tuple-oriented matrix is in use, because its Set()/EnsureTuples
  /// reallocate storage shared by all branches.
  class StripeGuard {
   public:
    StripeGuard(const TupleFirstEngine* engine,
                std::initializer_list<BranchId> branches) {
      if (engine->tuple_oriented()) {
        all_.emplace(engine->core_.stripes());
      } else {
        some_.emplace(engine->core_.stripes(), branches);
      }
    }
    StripeGuard(const TupleFirstEngine* engine,
                const std::vector<BranchId>& branches) {
      if (engine->tuple_oriented()) {
        all_.emplace(engine->core_.stripes());
      } else {
        some_.emplace(engine->core_.stripes(), branches);
      }
    }

   private:
    std::optional<StripeLocks::MultiGuard> some_;
    std::optional<StripeLocks::AllGuard> all_;
  };

  TupleFirstEngine(const Schema& schema, const EngineOptions& options)
      : core_("tuple-first", schema, options,
              [this](BranchId b) { return RebuildPkIndex(b); }) {}

  Status LoadExisting();
  Status InitFresh();
  bool tuple_oriented() const {
    return core_.options().orientation == BitmapOrientation::kTupleOriented;
  }
  uint32_t StripeOf(BranchId branch) const {
    return static_cast<uint32_t>(core_.stripes().IndexOf(branch));
  }
  /// The commit-history file for \p branch, creating it on first use.
  /// Takes commit_mu_ internally.
  Result<CommitHistory*> HistoryFor(BranchId branch);
  /// The kDiff walk: hands \p emit every row of \p a whose key \p b
  /// lacks. NotFound when either branch is unknown.
  Status DiffRows(BranchId a, BranchId b, const DiffRowSink& emit);
  /// Registers branch \p b and builds its pk index by scanning its bitmap
  /// column. Caller holds the registry unique (load/branch-create paths).
  Status RebuildPkIndex(BranchId b);
  std::string HistoryPath(BranchId branch) const;
  /// Serializes the engine meta (schema, bitmap index, commit registry,
  /// branch list, per-branch history byte sizes). Caller holds the
  /// registry unique.
  std::string EncodeMeta();

  BranchCore core_;
  /// The lock-order leaf (branch_core.h): commit_branch_ and the
  /// histories_ map shape.
  mutable std::mutex commit_mu_;

  std::unique_ptr<StripedHeap> heap_;
  std::unique_ptr<BitmapIndex> index_;
  std::unordered_map<BranchId, std::unique_ptr<CommitHistory>> histories_;
  std::unordered_map<CommitId, BranchId> commit_branch_;
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_TUPLE_FIRST_H_
