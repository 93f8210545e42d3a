#ifndef DECIBEL_CORE_DECIBEL_H_
#define DECIBEL_CORE_DECIBEL_H_

/// \file decibel.h
/// The public Decibel API (§2): a branched-versioned relational dataset.
/// The facade owns the version graph, the session registry and the lock
/// manager, and drives one of the three storage engines underneath.
///
/// The API is transaction-centric: mutations are staged into a
/// Transaction's WriteBatch and applied atomically on Commit() under a
/// single branch-granularity exclusive lock (§2.2.3's two-phase locking).
/// Typical flow (see examples/quickstart.cc):
///
///   auto db = Decibel::Open("/tmp/db", schema, {});
///   Session s = db->NewSession();
///   auto txn = db->Begin(&s);              // transaction on master
///   txn->Insert(r1);                       // staged, not yet visible
///   txn->Insert(r2);
///   auto st = txn->Commit();               // atomic under the branch lock
///   if (st.IsAborted()) st = txn->Commit();  // lock timeout: retryable
///   CommitId c1 = *db->Commit(&s);         // version snapshot
///   BranchId dev = *db->Branch("dev", &s); // branch at the snapshot
///   ...
///   db->Merge(master, dev, MergePolicy::kThreeWayLeft);
///
/// Reads are ScanSpec-driven (engine/scan_spec.h): one NewScan entry
/// point serves branch-head, commit, multi-branch and diff views with
/// predicate, projection and limit pushed into the engine scan loops,
/// and Get(branch, pk) is a pk-index point lookup:
///
///   auto cursor = *db->NewScan(ScanSpec::Branch(dev).Where(pred));
///   ScanRow row;
///   while (cursor->Next(&row)) { /* row.record */ }
///   Result<Record> rec = db->Get(dev, /*pk=*/42);
///
/// The per-record methods (InsertInto/UpdateIn/DeleteFrom) are thin
/// wrappers that run a one-op transaction on a branch; every write
/// reaches the engines through StorageEngine::ApplyBatch.
///
/// Operational semantics follow §2.2.3: updates become visible to other
/// branches only through merges; only committed versions can be checked
/// out; branches can be taken from any commit; concurrent sessions are
/// isolated with branch-granularity two-phase locking. A lock that cannot
/// be granted within the deadlock timeout fails the transaction with
/// Status::Aborted; staged operations are retained, so the retry
/// discipline is: release anything else you hold, back off, and call
/// Commit() again (or Abort() to discard).

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/publisher.h"
#include "engine/engine.h"
#include "txn/lock_guard.h"
#include "txn/lock_manager.h"
#include "txn/write_batch.h"
#include "version/version_graph.h"
#include "wal/checkpoint.h"
#include "wal/manifest.h"
#include "wal/wal_writer.h"

namespace decibel {

struct DecibelOptions {
  EngineType engine = EngineType::kHybrid;
  uint64_t page_size = 1 << 20;
  uint64_t buffer_pool_bytes = 64 << 20;
  BitmapOrientation orientation = BitmapOrientation::kBranchOriented;
  /// Branch-lock deadlock timeout: a lock not granted within this window
  /// fails with the retryable Status::Aborted (§2.2.3's 2PL discipline).
  uint32_t lock_timeout_ms = 1000;
  /// Seal full heap pages through the adaptive columnar page codec
  /// (RLE / dictionary / LZ behind a per-page format tag). Scans stay
  /// byte-identical either way; predicates are evaluated against the
  /// compressed strips before pages are decoded (see EngineOptions).
  bool compress_pages = false;

  // ------------------------------------------------------------ durability
  //
  // Every database persists one way. A versioned manifest names the last
  // checkpoint: tagged engine metadata, plus the version graph and the
  // uncommitted-branch map in graph.bin.<tag>. A write-ahead log holds
  // every operation since. Open restores the checkpoint and replays the
  // log. A background thread checkpoints (and truncates the log) every
  // checkpoint_interval_bytes; Flush(), CheckpointNow() and close
  // checkpoint on demand. sync_mode is the only durability setting.

  /// Unused; kept for source compatibility. Must be empty or equal to the
  /// Open path, which is the database root either way.
  std::string data_dir;
  /// How durable an acknowledged write is (see wal::SyncMode): kOff logs
  /// nothing, so a crash rolls back to the last checkpoint; kNone buffers
  /// log records in-process; kFlush survives process death; kFsync
  /// survives power loss.
  wal::SyncMode sync_mode = wal::SyncMode::kFlush;
  /// WAL segment rollover threshold.
  uint64_t wal_segment_bytes = 16ull << 20;
  /// WAL bytes between automatic background checkpoints.
  uint64_t checkpoint_interval_bytes = 64ull << 20;
};

/// A user session: the commit/branch the user's operations target
/// (§2.2.3: "A session captures the user's state").
class Session {
 public:
  uint64_t id() const { return id_; }
  /// The branch this session writes to / reads from.
  BranchId branch() const { return branch_; }
  /// When set (by Checkout of a historical commit), reads serve this
  /// commit instead of the branch head.
  CommitId checked_out() const { return checked_out_; }
  bool at_head() const { return checked_out_ == kInvalidCommit; }

 private:
  friend class Decibel;
  uint64_t id_ = 0;
  BranchId branch_ = kMasterBranch;
  CommitId checked_out_ = kInvalidCommit;
};

struct MergeInfo {
  CommitId commit = kInvalidCommit;
  MergeResult result;
};

/// One aggregated view of the whole database: the engine's physical
/// numbers, the version graph's logical ones, and the durability
/// subsystem's WAL/checkpoint progress. Served by Decibel::Stats() and —
/// over the wire — by the VQuel INFO statement (the server's health
/// endpoint).
struct DecibelStats {
  EngineStats engine;
  uint64_t branches = 0;
  uint64_t active_branches = 0;
  uint64_t commits = 0;
  /// Operations are logged (sync_mode is not kOff).
  bool durable = false;
  /// WAL frame bytes appended over this process's writer lifetime.
  uint64_t wal_bytes_appended = 0;
  /// Current WAL segment sequence number (segments created so far).
  uint64_t wal_segment_seq = 0;
  uint64_t wal_last_lsn = 0;
  /// Group-commit fdatasyncs issued (kFsync), and the most in flight at
  /// once; wal_last_lsn / wal_syncs is records per fdatasync.
  uint64_t wal_syncs = 0;
  uint64_t wal_syncs_in_flight_max = 0;
  uint64_t checkpoint_generation = 0;
  /// Commit-subscription counters (core/publisher.h).
  uint64_t subscriptions = 0;
  uint64_t events_published = 0;
};

class Decibel;

/// A unit of atomic mutation against one branch, obtained from
/// Decibel::Begin. Operations stage into a WriteBatch — invisible to
/// every reader — until Commit() applies them in one engine pass under
/// the branch's exclusive lock. Abort() (or destruction of an
/// uncommitted transaction) discards the staged operations.
///
/// Commit() returning Status::Aborted means the branch lock could not be
/// granted within the deadlock timeout. The staged batch is retained:
/// back off and call Commit() again, or Abort() to give up. Any other
/// error ends the transaction.
///
/// A Transaction is movable, single-threaded, and must not outlive its
/// Decibel.
class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;
  Transaction(Transaction&& other) noexcept;
  Transaction& operator=(Transaction&& other) = delete;

  BranchId branch() const { return branch_; }
  /// Unique transaction id; doubles as its lock-owner id.
  uint64_t id() const { return id_; }
  /// True until Commit() succeeds, Abort() runs, or Commit() fails with
  /// a non-retryable error.
  bool active() const { return active_; }
  /// Number of staged operations.
  size_t staged() const { return batch_.size(); }

  Status Insert(const Record& record);
  Status Update(const Record& record);
  Status Delete(int64_t pk);

  /// Direct access to the staged batch, for bulk loading (e.g. calling
  /// WriteBatch::Reserve before a large load).
  WriteBatch* batch() { return &batch_; }

  /// Applies every staged operation atomically under the branch's
  /// exclusive lock and marks the branch dirty. OK empties the
  /// transaction; Status::Aborted (lock timeout) keeps the staged batch
  /// for a retry; other errors end the transaction.
  Status Commit();

  /// Discards the staged operations and ends the transaction. OK on a
  /// transaction that already ended.
  Status Abort();

 private:
  friend class Decibel;
  Transaction(Decibel* db, BranchId branch, uint64_t id,
              const Schema* schema)
      : db_(db), branch_(branch), id_(id), batch_(schema) {}

  Status CheckActive() const;

  Decibel* db_;
  BranchId branch_;
  uint64_t id_;
  WriteBatch batch_;
  bool active_ = true;
};

class Decibel {
 public:
  /// Opens (or initializes) a Decibel database at \p path. A fresh
  /// database is Init-ed with a master branch holding \p schema (§2.2.3).
  static Result<std::unique_ptr<Decibel>> Open(const std::string& path,
                                               const Schema& schema,
                                               const DecibelOptions& options);

  /// Reopens a database without knowing its schema: the schema and
  /// engine type are restored from the manifest at \p path, the engines
  /// from the last checkpoint, and the WAL tail is replayed. NotFound
  /// when no manifest exists there.
  static Result<std::unique_ptr<Decibel>> Open(const std::string& path,
                                               const DecibelOptions& options);

  ~Decibel();

  // ------------------------------------------------------------- sessions

  /// Opens a session positioned at the master head.
  Session NewSession();

  /// Points \p session at the head of \p branch.
  Status Use(Session* session, BranchId branch);
  Status Use(Session* session, const std::string& branch_name);

  /// Checks out a committed version into the session (read-only view,
  /// §2.2.3 Checkout).
  Status Checkout(Session* session, CommitId commit);

  // --------------------------------------------------------- transactions

  /// Begins a transaction on the session's branch. Fails with
  /// InvalidArgument if the session has a historical checkout (writes
  /// must target a branch head).
  Result<Transaction> Begin(Session* session);
  /// Begins a transaction keyed by branch (the bulk-load path).
  Result<Transaction> Begin(BranchId branch);

  // ------------------------------------------------------- version control

  /// Branches \p name off the session's current position. If the session
  /// head has uncommitted changes they are committed first (branching is
  /// always anchored at a commit).
  Result<BranchId> Branch(const std::string& name, Session* session);
  /// Branches \p name off an explicit commit. Takes the commit's branch
  /// lock shared, so it waits for a transaction applying there (and fails
  /// with the retryable Status::Aborted past the lock timeout).
  Result<BranchId> BranchAt(const std::string& name, CommitId commit);

  /// Commits the session's branch working state (§2.2.3 Commit). Fails
  /// with InvalidArgument if the session has a historical checkout
  /// ("Commits are not allowed to non-head versions").
  Result<CommitId> Commit(Session* session);
  Result<CommitId> CommitBranch(BranchId branch);

  /// Retires \p branch: it stops appearing in HEADS scans and
  /// ActiveBranches, ending its line of development (§4.1's branch
  /// lifetime). Uncommitted writes are committed first; the branch then
  /// refuses writes (InvalidArgument) on every engine, while its head and
  /// commits stay readable and forkable. Master cannot be retired. The
  /// agentic many-branch workload's "delete branch" — physical storage is
  /// shared across branches and is never reclaimed per-branch.
  Status RetireBranch(BranchId branch);

  /// Merges \p from into \p into; the merge commit becomes the new head
  /// of \p into (§2.2.3 Merge).
  Result<MergeInfo> Merge(BranchId into, BranchId from, MergePolicy policy);

  /// Executes the merge \p spec describes: both heads are committed, the
  /// shared staging machinery reconciles every changed key under the
  /// spec's policy/resolution (engine/merge_spec.h), and the resolution
  /// is applied through the ordinary WriteBatch/ApplyBatch path — atomic,
  /// stripe-lock-ordered and WAL-framed. Staging is pure: any
  /// data-dependent failure (a callback error, a walk error) aborts
  /// before a commit is allocated or a WAL byte is written.
  Result<MergeInfo> Merge(const MergeSpec& spec);

  /// Dry run of \p spec: streams every key the merge would touch —
  /// change kind, conflict/field-merge marking, the three versions and
  /// the resolved state — without mutating anything. The cursor's
  /// stats() carries the same MergeResult Merge would report.
  Result<std::unique_ptr<MergeCursor>> PreviewMerge(const MergeSpec& spec);

  /// Three-way structured diff between two arbitrary commits against
  /// their lowest common ancestor: rows classified kAdd/kDelete/kUpdate
  /// from \p a's point of view, with conflict marking keys both commits
  /// changed since the ancestor.
  Result<std::unique_ptr<MergeCursor>> DiffCommits(CommitId a, CommitId b);

  // ------------------------------------------------------------- mutation

  /// One-op transaction on \p branch's head: stage, lock, apply, unlock.
  /// Group statements with Begin() to amortize the lock round-trip and
  /// the engine pass; Begin(Session*) is the session-keyed form.
  Status InsertInto(BranchId branch, const Record& record);
  Status UpdateIn(BranchId branch, const Record& record);
  Status DeleteFrom(BranchId branch, int64_t pk);

  /// Applies \p batch to \p branch as one anonymous transaction: takes
  /// the branch's exclusive lock, runs the engine's one-pass
  /// ApplyBatch, marks the branch dirty. Every mutation funnels through
  /// here — there is exactly one write path into the engines.
  Status ApplyBatch(BranchId branch, const WriteBatch& batch);

  // -------------------------------------------------------------- queries
  //
  // The read path is ScanSpec-driven (engine/scan_spec.h): describe the
  // view (branch head, commit, multi-branch heads, positive diff) plus
  // predicate / projection / limit, and NewScan returns a cursor with all
  // of it pushed into the engine:
  //
  //   auto cursor = *db->NewScan(ScanSpec::Branch(dev)
  //                                  .Where(*Predicate::Compare(
  //                                      schema, "qty", CompareOp::kLt, 5))
  //                                  .Project({0, 1}));
  //   ScanRow row;
  //   while (cursor->Next(&row)) { ... row.record ... }

  /// Serves \p spec. A ScanView::kHeads spec is resolved to the active
  /// branch heads (Table 1 query 4) before reaching the engine.
  Result<std::unique_ptr<ScanCursor>> NewScan(ScanSpec spec);

  /// Serves the session's current view: the branch head, or — when the
  /// session has a historical Checkout — that commit. \p spec contributes
  /// predicate/projection/limit; its view fields are overwritten.
  Result<std::unique_ptr<ScanCursor>> NewScan(const Session& session,
                                              ScanSpec spec = {});

  /// Point lookup of \p pk in the session's current view (branch head or
  /// checkout). NotFound when the key is not live there.
  Result<Record> Get(const Session& session, int64_t pk);
  /// Point lookup at a branch head: O(1) through the pk index on
  /// tuple-first and hybrid, an early-exit segment walk on version-first.
  Result<Record> Get(BranchId branch, int64_t pk);
  /// Point lookup in a historical commit (a pushed-down pk-equality scan
  /// of the commit view; commits have no pk index).
  Result<Record> GetAt(CommitId commit, int64_t pk);

  // ------------------------------------------------------------- metadata

  const Schema& schema() const { return schema_; }
  const VersionGraph& graph() const { return graph_; }
  StorageEngine* engine() { return engine_.get(); }
  LockManager* lock_manager() { return &locks_; }
  /// True if \p branch has modifications not yet captured by a commit.
  bool IsDirty(BranchId branch) const;

  // The bare graph() accessor above is unsynchronized — fine for
  // single-threaded callers, but concurrent sessions (the net server,
  // multiple interpreters over one facade) must read branch/commit
  // metadata through these, which take the same lock writers hold
  // while mutating the graph.
  bool HasBranch(BranchId branch) const;
  Result<BranchId> FindBranchByName(const std::string& name) const;
  std::vector<BranchInfo> ListBranches() const;
  CommitId Head(BranchId branch) const;
  Result<CommitInfo> GetCommit(CommitId commit) const;

  /// Every commit and merge is published here; subscribe per branch to
  /// watch it (the net server's SUBSCRIBE). Delivery is asynchronous, in
  /// commit order, covering commits made after Subscribe returns.
  CommitPublisher* publisher() { return &publisher_; }

  /// Aggregated engine + version-graph + WAL/checkpoint statistics.
  DecibelStats Stats() const;

  /// Runs a full checkpoint (CheckpointNow). Under kOff this is the only
  /// way besides close to persist writes.
  Status Flush();

  /// Quiesces writers, checkpoints the engine under a fresh tag, rolls
  /// the WAL, and publishes a new manifest generation (the previous one
  /// is retained as a fallback; older generations are garbage-collected).
  Status CheckpointNow();

  /// True when operations are logged (sync_mode is not kOff).
  bool durable() const { return options_.sync_mode != wal::SyncMode::kOff; }
  /// Current manifest generation (0 until the first checkpoint).
  uint64_t checkpoint_generation() const;

 private:
  friend class Transaction;

  Decibel(std::string path, Schema schema, DecibelOptions options)
      : path_(std::move(path)),
        schema_(std::move(schema)),
        options_(options),
        locks_(std::chrono::milliseconds(options.lock_timeout_ms)) {}

  /// Writes graph.bin.<tag>: the graph and the dirty map, CRC-trailed,
  /// atomically. Caller holds checkpoint_mu_ unique and mu_.
  Status WriteCheckpointGraph(const std::string& tag, bool sync);
  /// Restores graph_ and dirty_ from graph.bin.<tag>. Open only.
  Status LoadCheckpointGraph(const std::string& tag);
  /// "graph.bin.<tag>", the version graph of checkpoint \p tag.
  std::string GraphPath(const std::string& tag) const;
  std::string WalDir() const;

  // ----------------------------------------------------------- durability
  //
  // Lock order on the write path: LockManager branch locks first, then
  // checkpoint_mu_ (shared for writers — held across {WAL append, engine
  // apply, graph mutate} so a checkpoint sees no half-logged operation —
  // unique for the checkpointer, which never takes branch locks), then
  // mu_, then dirty_mu_, then the engine's internal locks. A transaction
  // (Begin, CommitTransaction) never takes mu_.

  /// Opens the WAL writer (replaying any tail first when \p have_manifest),
  /// checkpoints the opened state, and starts the background
  /// checkpointer unless sync_mode is kOff. Called from Open only.
  Status InitDurability(bool have_manifest);
  /// Replays every WAL record past the manifest's checkpoint_lsn, then
  /// truncates the (sole permissible) torn tail. Outputs the next lsn and
  /// the segment seq the writer should continue at.
  Status ReplayWal(uint64_t* next_lsn, uint64_t* next_seg);
  /// Applies one replayed record to the graph + engine, idempotently on
  /// the graph side; deterministic user-level failures (a batch whose
  /// original apply also failed) are skipped, not fatal.
  Status ApplyWalRecord(const wal::FrameView& frame);
  /// Appends + syncs one WAL record per the configured sync mode and
  /// credits the checkpoint scheduler. Caller holds checkpoint_mu_ shared.
  Status LogWal(wal::RecordType type, const std::string& body);
  /// Logs a kBranch record for an already graph-registered child branch.
  /// Caller holds checkpoint_mu_ shared and mu_. No-op under kOff.
  Status LogBranchCreation(BranchId child, const std::string& name,
                           CommitId base, BranchId parent, bool at_head);
  /// Checkpoint body; caller holds checkpoint_mu_ unique and mu_.
  Status CheckpointLocked();
  /// Deletes manifests/engine checkpoints older than \p keep and WAL
  /// segments below its replay window. Best effort.
  void CleanupObsolete(const wal::ManifestData& keep);
  /// Erases \p branch from dirty_; returns the ops it had staged.
  uint64_t TakeDirty(BranchId branch);
  /// Commits \p branch if it has uncommitted changes; returns its head.
  Result<CommitId> EnsureCommitted(BranchId branch);
  Result<CommitId> CommitLocked(BranchId branch);
  /// Rejects writes through a session with a historical checkout.
  Status WriteGuard(const Session& session) const;
  /// Applies \p batch under an already-held exclusive lock on \p branch.
  Status ApplyBatchLocked(BranchId branch, const WriteBatch& batch);
  /// InvalidArgument when \p branch is retired. Callers hold the
  /// branch's exclusive lock, which RetireBranch also takes.
  Status CheckWritable(BranchId branch) const;
  /// The commit path of a Transaction: exclusive lock owned by the
  /// transaction's id, then ApplyBatchLocked.
  Status CommitTransaction(BranchId branch, uint64_t owner,
                           const WriteBatch& batch);
  /// Unique owner id for a transaction or facade-internal lock scope.
  /// LockManager treats re-acquisition by one owner as a no-op, so every
  /// concurrent lock holder needs its own id.
  uint64_t NextOwnerId();

  const std::string path_;
  const Schema schema_;
  const DecibelOptions options_;

  std::unique_ptr<StorageEngine> engine_;
  VersionGraph graph_;
  LockManager locks_;

  /// Writer/checkpointer barrier; see the durability lock-order note.
  mutable std::shared_mutex checkpoint_mu_;
  std::unique_ptr<wal::Writer> wal_;
  std::unique_ptr<wal::CheckpointScheduler> checkpointer_;
  /// Current manifest generation (guarded by checkpoint_mu_ unique +
  /// mu_ inside CheckpointLocked; read-only elsewhere).
  wal::ManifestData manifest_;

  /// Guards graph_ and orders the metadata ops (commit, branch, merge,
  /// retire), which also log and sync their WAL record under it.
  mutable std::mutex mu_;
  /// Number of branches Begin may target: graph_.num_branches() as of
  /// the last finished branch creation. Branch ids are dense and never
  /// reused, so `b < num_branches_` is graph_.HasBranch without mu_.
  std::atomic<uint64_t> num_branches_{0};
  /// Leaf lock (taken after mu_ when both are held) for dirty_ and
  /// retired_.
  mutable std::mutex dirty_mu_;
  /// Branches with uncommitted changes → ops staged since their last
  /// commit (the record count carried by commit notifications).
  std::unordered_map<BranchId, uint64_t> dirty_;
  /// Retired branches, which refuse writes (read by transactions, which
  /// do not take mu_).
  std::unordered_set<BranchId> retired_;
  std::atomic<uint64_t> next_id_{1};

  /// Commit/merge event hub; its own (leaf) mutex, safe under mu_.
  CommitPublisher publisher_;
};

}  // namespace decibel

#endif  // DECIBEL_CORE_DECIBEL_H_
