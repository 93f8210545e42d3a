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
/// Concurrency: writers on disjoint branches proceed in parallel. The
/// lock hierarchy is registry_mu_ (shape of the branch registries, taken
/// shared by every operation and unique only by branch creation and
/// flush) -> stripe locks (branch % kWriteStripes; all per-branch state —
/// the pk index, the branch's bitmap column, its heap-file shard's tail)
/// -> commit_mu_ (the commit registry, a leaf). Cross-branch operations
/// needing several stripes take them in ascending order; MergeWalk works
/// off committed bitmap snapshots and takes no stripe locks. Readers
/// materialize a bitmap snapshot under the stripe lock, snapshot the
/// heap's extent mapping, and then stream without any lock.

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "bitmap/commit_history.h"
#include "common/stripe_lock.h"
#include "engine/engine.h"
#include "engine/pk_index.h"
#include "engine/scan_util.h"
#include "storage/buffer_pool.h"
#include "storage/striped_heap.h"

namespace decibel {

class TupleFirstEngine : public StorageEngine {
 public:
  /// Creates a fresh engine in options.directory, or reopens one that was
  /// previously flushed there.
  static Result<std::unique_ptr<TupleFirstEngine>> Make(
      const Schema& schema, const EngineOptions& options);

  EngineType type() const override { return EngineType::kTupleFirst; }
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

  /// Reconstructs the bitmap snapshotted at \p commit (exposed for tests
  /// and the bitmap micro-benchmarks).
  Result<Bitmap> CommitBitmap(CommitId commit);

 private:
  /// Holds the write stripes of a set of branches — or every stripe when
  /// the tuple-oriented matrix is in use, because its Set()/EnsureTuples
  /// reallocate storage shared by all branches.
  class StripeGuard {
   public:
    StripeGuard(const TupleFirstEngine* engine,
                std::initializer_list<BranchId> branches) {
      if (engine->options_.orientation == BitmapOrientation::kTupleOriented) {
        all_.emplace(engine->stripes_);
      } else {
        some_.emplace(engine->stripes_, branches);
      }
    }
    StripeGuard(const TupleFirstEngine* engine,
                const std::vector<BranchId>& branches) {
      if (engine->options_.orientation == BitmapOrientation::kTupleOriented) {
        all_.emplace(engine->stripes_);
      } else {
        some_.emplace(engine->stripes_, branches);
      }
    }

   private:
    std::optional<StripeLocks::MultiGuard> some_;
    std::optional<StripeLocks::AllGuard> all_;
  };

  TupleFirstEngine(const Schema& schema, const EngineOptions& options)
      : schema_(schema),
        options_(options),
        pool_(options.buffer_pool_bytes),
        stripes_(kWriteStripes) {}

  Status LoadExisting();
  Status InitFresh();
  uint32_t StripeOf(BranchId branch) const {
    return static_cast<uint32_t>(stripes_.IndexOf(branch));
  }
  /// The commit-history file for \p branch, creating it on first use.
  /// Takes commit_mu_ internally.
  Result<CommitHistory*> HistoryFor(BranchId branch);
  /// Commit body; caller holds registry (shared or unique) and the
  /// branch's stripe.
  Status CommitImpl(BranchId branch, CommitId commit_id);
  /// The kDiff walk: hands \p emit every row of \p a whose key \p b
  /// lacks. NotFound when either branch is unknown.
  Status DiffRows(BranchId a, BranchId b, const DiffRowSink& emit);
  /// Rebuilds branch \p b's pk index by scanning its bitmap column.
  /// Caller holds the registry unique (load/branch-create paths).
  Status RebuildPkIndex(BranchId b);
  std::string MetaPath(const std::string& tag) const;
  std::string HistoryPath(BranchId branch) const;
  /// Serializes the engine meta (schema, bitmap index, commit registry,
  /// branch list, per-branch history byte sizes). Caller holds the
  /// registry unique.
  std::string EncodeMeta();

  Schema schema_;
  EngineOptions options_;
  BufferPool pool_;
  /// Lifetime scan-work totals (EngineStats::rows_scanned/bytes_scanned).
  ScanCounters scan_counters_;

  /// Shape of the branch registries (pk_index_ keys, bitmap branch set).
  /// Writers/readers take it shared; CreateBranch and Checkpoint take
  /// it unique. Ordered before the stripe locks.
  mutable std::shared_mutex registry_mu_;
  /// Per-branch write serialization; see file comment for the hierarchy.
  mutable StripeLocks stripes_;
  /// Leaf lock: commit_branch_ and the histories_ map shape. Never
  /// acquire another engine lock while holding it.
  mutable std::mutex commit_mu_;

  std::unique_ptr<StripedHeap> heap_;
  std::unique_ptr<BitmapIndex> index_;
  /// pk -> global record index of the live version, per branch.
  std::unordered_map<BranchId, PkIndex> pk_index_;
  std::unordered_map<BranchId, std::unique_ptr<CommitHistory>> histories_;
  std::unordered_map<CommitId, BranchId> commit_branch_;
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_TUPLE_FIRST_H_
