#ifndef DECIBEL_ENGINE_BRANCH_CORE_H_
#define DECIBEL_ENGINE_BRANCH_CORE_H_

/// \file branch_core.h
/// The branch state all three engines share, held by each engine as one
/// BranchCore member (composition: the engine calls the core; the core
/// calls back only to rebuild a released pk index). The core owns what
/// does not depend on the record layout the paper compares (§3.2-3.4):
/// the schema and options, the buffer pool, the scan-work counters, the
/// per-branch pk index that makes Get O(1), the registry lock and the
/// write stripes. Its pk-index map is also the set of branches the engine
/// knows: every operation naming a branch checks it here, so an unknown
/// branch is NotFound on every engine, before any state or file is
/// touched. A retired branch stays known but releases its index
/// (Release); the next Get, write or fork of it rebuilds the index from
/// the engine's layout, as a reopen does.
///
/// Lock order, the same in every engine:
///   1. registry_mu_ (shared_mutex): the shape of every branch registry,
///      the pk-index map here and the engine's own maps and segment
///      vector. Reads and writes take it shared; CreateBranch,
///      Checkpoint, ReleaseBranch and the rebuild of a released pk
///      index take it unique.
///   2. The write stripes (branch % kWriteStripes): all per-branch state,
///      i.e. the branch's pk index, its bitmap columns and its
///      head-segment or heap-shard tail. Several stripes are taken in
///      ascending order (StripeLocks::MultiGuard / AllGuard).
///   3. The engine's commit_mu_, a leaf: its commit registry (commit ->
///      branch and the history files in tuple-first and hybrid, commit ->
///      root in version-first). Nothing is acquired while it is held.
/// Scans snapshot bitmaps or segment bounds under these locks and then
/// stream without any; MergeWalk and commit views read committed state
/// and take at most the registry (shared) and the leaf.

#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/result.h"
#include "common/stripe_lock.h"
#include "engine/engine.h"
#include "engine/pk_index.h"
#include "storage/buffer_pool.h"

namespace decibel {

class BranchCore {
 public:
  /// Refills a branch's pk index (see Register) from the engine's record
  /// layout at the branch's head. Called under the unique registry lock.
  using RebuildIndex = std::function<Status(BranchId)>;

  /// \p engine_name prefixes every status the core builds.
  BranchCore(const char* engine_name, const Schema& schema,
             const EngineOptions& options, RebuildIndex rebuild_index)
      : name_(engine_name),
        schema_(schema),
        options_(options),
        pool_(options.buffer_pool_bytes),
        stripes_(kWriteStripes),
        rebuild_index_(std::move(rebuild_index)) {}

  const Schema& schema() const { return schema_; }
  const EngineOptions& options() const { return options_; }
  BufferPool* pool() { return &pool_; }
  /// Mutable so cursors over a const engine can flush into it.
  ScanCounters* scan_counters() const { return &scan_counters_; }
  std::shared_mutex& registry_mu() const { return registry_mu_; }
  StripeLocks& stripes() const { return stripes_; }
  void DropCaches() { pool_.EvictAll(); }

  // ------------------------------------------------------------ engine.meta

  /// Creates the engine directory, and \p subdir under it when non-null.
  Status CreateDirs(const char* subdir) const;
  /// Appends engine.meta's common prefix: the format header and the schema.
  void EncodeMetaPrefix(std::string* meta) const;
  /// Reads engine.meta.<tag> into *\p meta and points *\p input past its
  /// common prefix, checking the header and that the stored schema is
  /// this engine's.
  Status ReadMeta(const std::string& tag, std::string* meta,
                  Slice* input) const;
  Status WriteMeta(const std::string& tag, const std::string& meta,
                   bool sync) const;
  Status RemoveMeta(const std::string& tag) const;

  // -------------------------------------------------------------- branches
  // Callers hold registry_mu_: shared to read, unique to register or fork.

  /// NotFound("<engine>: unknown branch N") unless \p branch is known.
  Status CheckKnown(BranchId branch) const;
  /// CreateBranch's check: \p parent known and \p child new.
  Status CheckFork(BranchId child, BranchId parent) const;
  /// Registers \p branch with an empty pk index (an existing branch keeps
  /// its index, and a released one is marked filled again) and returns
  /// the index for the caller to fill.
  PkIndex* Register(BranchId branch) {
    released_.erase(branch);
    return &pk_index_[branch];
  }
  /// An at-head fork, under the unique registry: \p child starts with
  /// \p parent's keys, sharing its frozen layers (PkIndex::Fork). A
  /// released parent's index is rebuilt first.
  Status ForkIndex(BranchId child, BranchId parent);
  /// Drops \p branch's pk index (a retired branch's), keeping the branch
  /// known. Under the unique registry.
  void Release(BranchId branch);
  /// Rebuilds \p branch's index if it was released. The caller holds the
  /// registry shared through *\p registry and no stripe; the lock is
  /// dropped and retaken around the rebuild. On OK the index is filled
  /// until *\p registry is unlocked.
  Status Restore(std::shared_lock<std::shared_mutex>* registry,
                 BranchId branch);
  /// The known branches and their indexes.
  const std::unordered_map<BranchId, PkIndex>& indexes() const {
    return pk_index_;
  }

  /// ApplyBatch's preamble, under the registry and \p branch's stripe,
  /// after Restore: the branch is known and every delete of \p batch
  /// names a live key (see StorageEngine::ApplyBatch). Returns the
  /// branch's pk index.
  Result<PkIndex*> BeginBatch(BranchId branch, const WriteBatch& batch);

  /// Get's index probe: the location \p pk's live version has at the head
  /// of \p branch. Restores a released index, then takes the branch's
  /// stripe; the caller holds the registry shared through *\p registry.
  /// NotFound when the branch is unknown or the key is not live.
  Result<uint64_t> Probe(std::shared_lock<std::shared_mutex>* registry,
                         BranchId branch, int64_t pk);

  /// An engine's Stats(): \p layout fills the fields its record layout
  /// owns under the registry (shared) and every stripe, and the core adds
  /// the pk indexes' bytes and the pool and scan counters.
  template <typename Layout>
  EngineStats Stats(const Layout& layout) const {
    std::shared_lock<std::shared_mutex> registry(registry_mu_);
    StripeLocks::AllGuard stripes(stripes_);
    EngineStats stats;
    layout(&stats);
    std::unordered_set<const void*> shared_layers;
    for (const auto& [branch, pks] : pk_index_) {
      stats.index_memory_bytes += pks.MemoryBytes(&shared_layers);
    }
    stats.rows_scanned = scan_counters_.rows();
    stats.bytes_scanned = scan_counters_.bytes();
    stats.bytes_read = scan_counters_.bytes_read();
    stats.segments_skipped = scan_counters_.segments_skipped();
    stats.pages_skipped = scan_counters_.pages_skipped();
    stats.pool_hits = pool_.hits();
    stats.pool_misses = pool_.misses();
    stats.pool_resident_bytes = pool_.resident_bytes();
    return stats;
  }

 private:
  const char* const name_;
  const Schema schema_;
  const EngineOptions options_;
  BufferPool pool_;
  /// Lifetime scan-work totals (EngineStats::rows_scanned and friends).
  mutable ScanCounters scan_counters_;
  /// Tier 1 of the lock order (see the file comment).
  mutable std::shared_mutex registry_mu_;
  /// Tier 2 of the lock order.
  mutable StripeLocks stripes_;
  /// pk -> the engine's location of the live version, per branch. A
  /// branch's entry is written under its stripe (ApplyBatch) or the unique
  /// registry lock (CreateBranch, load, Release, a rebuild). Memory-only:
  /// each engine rebuilds it from its layout on open.
  std::unordered_map<BranchId, PkIndex> pk_index_;
  /// Known branches whose index is released (empty until rebuilt).
  /// Written under the unique registry lock.
  std::unordered_set<BranchId> released_;
  const RebuildIndex rebuild_index_;
};

/// MakeEngine's body for every engine: creates the engine's directories,
/// then reopens the checkpoint options.checkpoint_tag names, or
/// initializes a fresh engine when the tag is empty.
template <typename Engine>
Result<std::unique_ptr<StorageEngine>> OpenEngine(
    const Schema& schema, const EngineOptions& options) {
  std::unique_ptr<Engine> engine(new Engine(schema, options));
  DECIBEL_RETURN_NOT_OK(engine->core_.CreateDirs(Engine::kSubdir));
  DECIBEL_RETURN_NOT_OK(options.checkpoint_tag.empty()
                            ? engine->InitFresh()
                            : engine->LoadExisting());
  return std::unique_ptr<StorageEngine>(std::move(engine));
}

}  // namespace decibel

#endif  // DECIBEL_ENGINE_BRANCH_CORE_H_
