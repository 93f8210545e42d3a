#include "core/decibel.h"

#include <algorithm>
#include <cstdlib>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/io.h"
#include "engine/scan_util.h"
#include "wal/wal_reader.h"

namespace decibel {

// -------------------------------------------------------------- transaction

Transaction::Transaction(Transaction&& other) noexcept
    : db_(other.db_),
      branch_(other.branch_),
      id_(other.id_),
      batch_(std::move(other.batch_)),
      active_(other.active_) {
  other.active_ = false;
}

Transaction::~Transaction() {
  // An uncommitted transaction aborts: staged operations are discarded.
  Abort().ok();
}

Status Transaction::CheckActive() const {
  if (!active_) {
    return Status::InvalidArgument("transaction " + std::to_string(id_) +
                                   " is no longer active");
  }
  return Status::OK();
}

Status Transaction::Insert(const Record& record) {
  DECIBEL_RETURN_NOT_OK(CheckActive());
  batch_.Insert(record);
  return Status::OK();
}

Status Transaction::Update(const Record& record) {
  DECIBEL_RETURN_NOT_OK(CheckActive());
  batch_.Update(record);
  return Status::OK();
}

Status Transaction::Delete(int64_t pk) {
  DECIBEL_RETURN_NOT_OK(CheckActive());
  batch_.Delete(pk);
  return Status::OK();
}

Status Transaction::Commit() {
  DECIBEL_RETURN_NOT_OK(CheckActive());
  const Status applied = db_->CommitTransaction(branch_, id_, batch_);
  if (applied.IsAborted()) {
    // Lock timeout: the batch is retained so the caller can back off and
    // retry Commit(), per the deadlock-timeout discipline.
    return applied;
  }
  batch_.Clear();
  active_ = false;
  return applied;
}

Status Transaction::Abort() {
  if (!active_) return Status::OK();
  batch_.Clear();
  active_ = false;
  return Status::OK();
}

// --------------------------------------------------------------------- open

namespace {

Status ValidateOptions(const std::string& path, const DecibelOptions& o) {
  if (o.page_size < 512 || o.page_size > (1ull << 31)) {
    return Status::InvalidArgument(
        "DecibelOptions::page_size out of range [512 B, 2 GiB]");
  }
  if (o.wal_segment_bytes == 0) {
    return Status::InvalidArgument(
        "DecibelOptions::wal_segment_bytes must be > 0");
  }
  if (o.checkpoint_interval_bytes == 0) {
    return Status::InvalidArgument(
        "DecibelOptions::checkpoint_interval_bytes must be > 0");
  }
  if (!o.data_dir.empty() && o.data_dir != path) {
    return Status::InvalidArgument(
        "DecibelOptions::data_dir must equal the Open path (" + path + ")");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Decibel>> Decibel::Open(const std::string& path,
                                               const Schema& schema,
                                               const DecibelOptions& options) {
  DECIBEL_RETURN_NOT_OK(ValidateOptions(path, options));
  std::unique_ptr<Decibel> db(new Decibel(path, schema, options));
  DECIBEL_RETURN_NOT_OK(CreateDir(path));

  // The manifest pins the checkpoint the engines restore to and the WAL
  // suffix to replay on top.
  wal::ManifestData manifest;
  bool have_manifest = false;
  auto m = wal::ReadCurrentManifest(path);
  if (m.ok()) {
    manifest = std::move(*m);
    have_manifest = true;
    std::string mine;
    schema.EncodeTo(&mine);
    if (mine != manifest.schema) {
      return Status::InvalidArgument(
          "schema does not match the database at " + path);
    }
    if (manifest.engine != options.engine) {
      return Status::InvalidArgument(
          "engine type does not match the database at " + path +
          " (on disk: " + EngineTypeName(manifest.engine) + ")");
    }
  } else if (!m.status().IsNotFound()) {
    return m.status();
  } else if (FileExists(JoinPath(path, "graph.bin"))) {
    // An untagged graph.bin without a manifest is a database from before
    // every Open checkpointed. A fresh init would recreate (truncate) its
    // data files, so refuse instead.
    return Status::InvalidArgument(
        "unsupported database format at " + path +
        ": graph.bin without a MANIFEST-* (written by an older release)");
  }

  EngineOptions engine_options;
  engine_options.directory = JoinPath(path, EngineTypeName(options.engine));
  engine_options.page_size = options.page_size;
  engine_options.buffer_pool_bytes = options.buffer_pool_bytes;
  engine_options.orientation = options.orientation;
  engine_options.compress_pages = options.compress_pages;
  if (have_manifest) engine_options.checkpoint_tag = manifest.checkpoint_tag;
  DECIBEL_ASSIGN_OR_RETURN(db->engine_,
                           MakeEngine(options.engine, schema, engine_options));

  if (have_manifest) {
    // Recovery starts from the checkpoint's synced graph copy, written by
    // the same CheckpointLocked that produced this manifest; WAL replay
    // rebuilds every newer branch/commit on top.
    DECIBEL_RETURN_NOT_OK(db->LoadCheckpointGraph(manifest.checkpoint_tag));
  } else {
    // No manifest means no Open ever completed here (the first checkpoint
    // runs inside Open), so nothing was ever acknowledged. Init (§2.2.3):
    // create the master branch and its initial commit.
    DECIBEL_ASSIGN_OR_RETURN(CommitId init, db->graph_.Init());
    DECIBEL_RETURN_NOT_OK(db->engine_->Commit(kMasterBranch, init));
  }

  db->manifest_ = std::move(manifest);
  DECIBEL_RETURN_NOT_OK(db->InitDurability(have_manifest));
  db->num_branches_.store(db->graph_.num_branches(), std::memory_order_release);
  return db;
}

Result<std::unique_ptr<Decibel>> Decibel::Open(const std::string& path,
                                               const DecibelOptions& options) {
  if (!FileExists(path)) {
    return Status::NotFound("no Decibel database at " + path);
  }
  DECIBEL_ASSIGN_OR_RETURN(wal::ManifestData m,
                           wal::ReadCurrentManifest(path));
  Slice schema_in(m.schema);
  DECIBEL_ASSIGN_OR_RETURN(Schema schema, Schema::DecodeFrom(&schema_in));
  DecibelOptions opts = options;
  opts.engine = m.engine;
  return Open(path, schema, opts);
}

Decibel::~Decibel() {
  // Stop the background checkpointer before tearing anything down, then
  // leave a final checkpoint so the next Open replays an empty tail.
  if (checkpointer_ != nullptr) checkpointer_->Stop();
  if (wal_ == nullptr) return;  // Open failed part-way through
  CheckpointNow().ok();
  wal_->Close().ok();
}

std::string Decibel::GraphPath(const std::string& tag) const {
  return JoinPath(path_, "graph.bin." + tag);
}

std::string Decibel::WalDir() const { return JoinPath(path_, "wal"); }

Status Decibel::WriteCheckpointGraph(const std::string& tag, bool sync) {
  // The graph, then the branches with uncommitted writes: the checkpoint
  // captured those writes, and replay starts after them, so without the
  // map a reopened branch would look clean and fork without committing.
  std::string blob;
  graph_.EncodeTo(&blob);
  std::lock_guard<std::mutex> dirty_lock(dirty_mu_);
  PutVarint64(&blob, dirty_.size());
  for (const auto& [branch, ops] : dirty_) {
    PutVarint32(&blob, branch);
    PutVarint64(&blob, ops);
  }
  PutFixed32(&blob, MaskCrc(Crc32(blob)));
  return AtomicWriteFile(GraphPath(tag), blob, sync);
}

Status Decibel::LoadCheckpointGraph(const std::string& tag) {
  const std::string path = GraphPath(tag);
  DECIBEL_ASSIGN_OR_RETURN(std::string blob, ReadFileToString(path));
  if (blob.size() < sizeof(uint32_t)) {
    return Status::Corruption("version graph file truncated: " + path);
  }
  const uint32_t stored =
      UnmaskCrc(DecodeFixed32(blob.data() + blob.size() - 4));
  blob.resize(blob.size() - 4);
  if (stored != Crc32(blob)) {
    return Status::Corruption("version graph checksum mismatch: " + path);
  }
  Slice input(blob);
  DECIBEL_ASSIGN_OR_RETURN(graph_, VersionGraph::DecodeFrom(&input));
  // Files from before the dirty map end right after the graph.
  uint64_t num_dirty = 0;
  if (!input.empty() && !GetVarint64(&input, &num_dirty)) {
    return Status::Corruption("version graph: truncated dirty map in " + path);
  }
  for (uint64_t i = 0; i < num_dirty; ++i) {
    BranchId branch;
    uint64_t ops;
    if (!GetVarint32(&input, &branch) || !GetVarint64(&input, &ops)) {
      return Status::Corruption("version graph: truncated dirty entry in " +
                                path);
    }
    dirty_[branch] = ops;
  }
  return Status::OK();
}

// ------------------------------------------------------------- durability

Status Decibel::InitDurability(bool have_manifest) {
  uint64_t next_lsn = 1;
  uint64_t next_seg = 1;
  if (have_manifest) {
    DECIBEL_RETURN_NOT_OK(ReplayWal(&next_lsn, &next_seg));
    // The engine opened every branch's pk index; a retired branch drops
    // its own again, as RetireBranch did, and takes no writes.
    for (const BranchInfo& info : graph_.branches()) {
      if (info.active) continue;
      DECIBEL_RETURN_NOT_OK(engine_->ReleaseBranch(info.id));
      retired_.insert(info.id);
    }
  }
  wal::Writer::Options wopts;
  wopts.sync_mode = options_.sync_mode;
  wopts.segment_bytes = options_.wal_segment_bytes;
  DECIBEL_ASSIGN_OR_RETURN(
      wal_, wal::Writer::Open(WalDir(), wopts, next_lsn, next_seg));
  checkpointer_ = std::make_unique<wal::CheckpointScheduler>(
      [this] { return CheckpointNow(); }, options_.checkpoint_interval_bytes);
  // Checkpoint the opened state right away: a fresh database gets its
  // first manifest before Open returns, and a recovered one folds the
  // replayed tail in so repeated crash/reopen cycles cannot grow the WAL
  // without bound.
  DECIBEL_RETURN_NOT_OK(CheckpointNow());
  // Under kOff no log bytes ever credit the scheduler, so its worker
  // would never run. Not starting it also keeps a single-threaded caller
  // single-threaded, which lets the C and C++ runtimes skip atomic
  // operations: an idle worker cost ~8% of a one-record insert.
  if (durable()) checkpointer_->Start();
  return Status::OK();
}

Status Decibel::ReplayWal(uint64_t* next_lsn, uint64_t* next_seg) {
  std::vector<uint64_t> seqs;
  if (FileExists(WalDir())) {
    DECIBEL_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(WalDir()));
    for (const std::string& name : names) {
      if (name.size() < 5 || name.substr(name.size() - 4) != ".wal") continue;
      const uint64_t seq = std::strtoull(name.c_str(), nullptr, 10);
      if (seq >= manifest_.wal_start_seq) seqs.push_back(seq);
    }
    std::sort(seqs.begin(), seqs.end());
  }
  // A hole anywhere in the live window means acknowledged records are
  // gone: the first live segment must be the one the manifest pinned, and
  // each subsequent one must follow without a gap.
  if (!seqs.empty() && seqs.front() != manifest_.wal_start_seq) {
    return Status::Corruption(
        "first live WAL segment " + std::to_string(manifest_.wal_start_seq) +
        " missing from " + WalDir());
  }
  for (size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i] != seqs[i - 1] + 1) {
      return Status::Corruption("WAL segment " + std::to_string(seqs[i - 1] + 1) +
                                " missing from " + WalDir());
    }
  }

  uint64_t max_lsn =
      manifest_.next_lsn > 0 ? manifest_.next_lsn - 1 : manifest_.checkpoint_lsn;
  // Lsns are assigned densely, so replay must see checkpoint_lsn + 1,
  // + 2, ... in order; any skip is silent loss of acknowledged records.
  uint64_t expected_lsn = manifest_.checkpoint_lsn + 1;
  for (size_t i = 0; i < seqs.size(); ++i) {
    const std::string path = wal::Writer::SegmentPath(WalDir(), seqs[i]);
    DECIBEL_ASSIGN_OR_RETURN(std::unique_ptr<wal::Reader> reader,
                             wal::Reader::Open(path));
    wal::FrameView frame;
    while (reader->Next(&frame)) {
      if (frame.lsn <= manifest_.checkpoint_lsn) continue;
      if (frame.lsn != expected_lsn) {
        return Status::Corruption(
            "WAL lsn discontinuity in " + path + ": expected " +
            std::to_string(expected_lsn) + ", found " +
            std::to_string(frame.lsn));
      }
      ++expected_lsn;
      DECIBEL_RETURN_NOT_OK(ApplyWalRecord(frame));
      if (frame.lsn > max_lsn) max_lsn = frame.lsn;
    }
    if (reader->torn_tail()) {
      // Only the last segment may end mid-record (the crash point); a torn
      // frame with sealed segments after it means records were lost.
      if (i + 1 != seqs.size()) {
        return Status::Corruption("torn WAL record mid-sequence in " + path);
      }
      DECIBEL_ASSIGN_OR_RETURN(RandomWriteFile f, RandomWriteFile::Open(path));
      DECIBEL_RETURN_NOT_OK(f.Truncate(reader->valid_end()));
      if (options_.sync_mode == wal::SyncMode::kFsync) {
        DECIBEL_RETURN_NOT_OK(f.Sync());
      }
      DECIBEL_RETURN_NOT_OK(f.Close());
    }
  }
  *next_lsn = max_lsn + 1;
  *next_seg = seqs.empty() ? manifest_.wal_start_seq : seqs.back() + 1;
  return Status::OK();
}

Status Decibel::ApplyWalRecord(const wal::FrameView& frame) {
  // Runs single-threaded inside Open. The graph replays idempotently;
  // the engine — rolled back to the checkpoint — has seen nothing past
  // checkpoint_lsn, so it gets every record exactly once. Deterministic
  // user-level failures (a batch whose delete was invalid, a merge that
  // was rejected) failed identically in the original timeline and are
  // skipped, not fatal.
  switch (frame.type) {
    case wal::RecordType::kBatch: {
      WriteBatch batch(&schema_);
      BranchId branch = kInvalidBranch;
      DECIBEL_RETURN_NOT_OK(wal::DecodeBatchBody(frame.body, &branch, &batch));
      const Status applied = engine_->ApplyBatch(branch, batch);
      if (applied.ok()) {
        dirty_[branch] += batch.size();
        return Status::OK();
      }
      if (applied.IsNotFound() || applied.IsInvalidArgument()) {
        return Status::OK();
      }
      return applied;
    }
    case wal::RecordType::kCommit: {
      wal::CommitBody b;
      DECIBEL_RETURN_NOT_OK(wal::DecodeCommitBody(frame.body, &b));
      DECIBEL_RETURN_NOT_OK(graph_.ReplayCommit(b.commit, b.branch, b.parents));
      // Branch/commit records are logged before the engine call, so an
      // engine-side rejection that happened (deterministically) in the
      // original timeline replays as the same rejection — skipping it
      // keeps recovery from failing on every subsequent Open.
      const Status committed = engine_->Commit(b.branch, b.commit);
      if (!committed.ok() && !committed.IsNotFound() &&
          !committed.IsInvalidArgument()) {
        return committed;
      }
      dirty_.erase(b.branch);
      return Status::OK();
    }
    case wal::RecordType::kBranch: {
      wal::BranchBody b;
      DECIBEL_RETURN_NOT_OK(wal::DecodeBranchBody(frame.body, &b));
      DECIBEL_RETURN_NOT_OK(graph_.ReplayBranch(b.child, b.name, b.base,
                                                b.parent_branch, b.head));
      const Status branched = engine_->CreateBranch(b.child, b.parent_branch,
                                                    b.base, b.at_head);
      if (branched.ok() || branched.IsNotFound() ||
          branched.IsInvalidArgument()) {
        return Status::OK();
      }
      return branched;
    }
    case wal::RecordType::kMerge: {
      // The record carries the *resolved* batch: replay re-registers the
      // commit and applies the batch — no merge re-execution, so recovery
      // is deterministic even for callback-resolved merges.
      wal::MergeBody b;
      DECIBEL_RETURN_NOT_OK(wal::DecodeMergeBody(frame.body, &b));
      DECIBEL_RETURN_NOT_OK(graph_.ReplayCommit(b.commit, b.into, b.parents));
      WriteBatch batch(&schema_);
      BranchId branch = kInvalidBranch;
      DECIBEL_RETURN_NOT_OK(
          wal::DecodeBatchBody(Slice(b.batch_body), &branch, &batch));
      Status applied = Status::OK();
      if (batch.size() > 0) applied = engine_->ApplyBatch(branch, batch);
      if (applied.ok()) applied = engine_->Commit(b.into, b.commit);
      if (applied.ok()) {
        dirty_.erase(b.into);
        return Status::OK();
      }
      if (applied.IsNotFound() || applied.IsInvalidArgument()) {
        return Status::OK();
      }
      return applied;
    }
    case wal::RecordType::kRetire: {
      BranchId branch = kInvalidBranch;
      DECIBEL_RETURN_NOT_OK(wal::DecodeRetireBody(frame.body, &branch));
      if (graph_.HasBranch(branch)) graph_.SetActive(branch, false);
      dirty_.erase(branch);
      DECIBEL_RETURN_NOT_OK(engine_->ReleaseBranch(branch));
      return Status::OK();
    }
  }
  return Status::Corruption("unknown WAL record type " +
                            std::to_string(static_cast<int>(frame.type)));
}

Status Decibel::LogWal(wal::RecordType type, const std::string& body) {
  DECIBEL_ASSIGN_OR_RETURN(const uint64_t lsn, wal_->Append(type, body));
  DECIBEL_RETURN_NOT_OK(wal_->Sync(lsn));
  checkpointer_->NotifyBytes(body.size() + wal::kFrameHeaderSize);
  return Status::OK();
}

Status Decibel::CheckpointNow() {
  // Quiesce the write path: writers hold checkpoint_mu_ shared across
  // {WAL append, engine apply, graph mutate}, so under the unique lock
  // every logged operation is fully applied and the engines are at an
  // exact record boundary.
  std::unique_lock<std::shared_mutex> barrier(checkpoint_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status Decibel::CheckpointLocked() {
  const uint64_t version = manifest_.version + 1;
  const bool sync = options_.sync_mode == wal::SyncMode::kFsync;

  wal::ManifestData m;
  m.version = version;
  m.checkpoint_tag = wal::CheckpointTag(version);
  m.checkpoint_lsn = wal_->last_lsn();
  // Roll first so the checkpoint owns a whole-segment boundary: segments
  // below the new one hold only records the checkpoint covers, and WAL
  // truncation is pure file deletion.
  DECIBEL_ASSIGN_OR_RETURN(m.wal_start_seq, wal_->Roll());
  m.next_lsn = wal_->next_lsn();
  schema_.EncodeTo(&m.schema);
  m.engine = options_.engine;

  DECIBEL_RETURN_NOT_OK(engine_->Checkpoint(m.checkpoint_tag, sync));
  // The graph copy recovery restores from; tagged per generation so a
  // torn rewrite of one generation never strands the fallback one.
  DECIBEL_RETURN_NOT_OK(WriteCheckpointGraph(m.checkpoint_tag, sync));
  DECIBEL_RETURN_NOT_OK(wal::WriteManifest(path_, m, sync));

  const wal::ManifestData prev = manifest_;
  manifest_ = std::move(m);
  // Keep the previous generation (manifest fallback needs its engine
  // checkpoint and WAL suffix); everything older is garbage.
  if (prev.version > 0) CleanupObsolete(prev);
  return Status::OK();
}

void Decibel::CleanupObsolete(const wal::ManifestData& keep) {
  auto listing = ListDir(path_);
  if (listing.ok()) {
    for (const std::string& name : *listing) {
      if (name.rfind("MANIFEST-", 0) != 0) continue;
      const uint64_t v = std::strtoull(name.c_str() + 9, nullptr, 10);
      if (v >= keep.version) continue;
      RemoveFile(JoinPath(path_, name)).ok();
      engine_->RemoveCheckpoint(wal::CheckpointTag(v)).ok();
      RemoveFile(GraphPath(wal::CheckpointTag(v))).ok();
    }
  }
  auto wals = ListDir(WalDir());
  if (wals.ok()) {
    for (const std::string& name : *wals) {
      if (name.size() < 5 || name.substr(name.size() - 4) != ".wal") continue;
      const uint64_t seq = std::strtoull(name.c_str(), nullptr, 10);
      if (seq < keep.wal_start_seq) {
        RemoveFile(JoinPath(WalDir(), name)).ok();
      }
    }
  }
}

uint64_t Decibel::checkpoint_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.version;
}

// ---------------------------------------------------------------- sessions

uint64_t Decibel::NextOwnerId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

Session Decibel::NewSession() {
  Session s;
  s.id_ = NextOwnerId();
  return s;
}

Status Decibel::Use(Session* session, BranchId branch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!graph_.HasBranch(branch)) {
      return Status::NotFound("no branch " + std::to_string(branch));
    }
  }
  session->branch_ = branch;
  session->checked_out_ = kInvalidCommit;
  return Status::OK();
}

Status Decibel::Use(Session* session, const std::string& branch_name) {
  BranchId b;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DECIBEL_ASSIGN_OR_RETURN(b, graph_.FindBranchByName(branch_name));
  }
  return Use(session, b);
}

Status Decibel::Checkout(Session* session, CommitId commit) {
  CommitInfo info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DECIBEL_ASSIGN_OR_RETURN(info, graph_.GetCommit(commit));
  }
  DECIBEL_RETURN_NOT_OK(engine_->Checkout(commit));
  session->branch_ = info.branch;
  session->checked_out_ = commit;
  return Status::OK();
}

// ------------------------------------------------------------- transactions

Result<Transaction> Decibel::Begin(Session* session) {
  DECIBEL_RETURN_NOT_OK(WriteGuard(*session));
  return Begin(session->branch_);
}

Result<Transaction> Decibel::Begin(BranchId branch) {
  if (branch >= num_branches_.load(std::memory_order_acquire)) {
    return Status::NotFound("no branch " + std::to_string(branch));
  }
  return Transaction(this, branch, NextOwnerId(), &schema_);
}

// ---------------------------------------------------------- version control

Result<CommitId> Decibel::CommitLocked(BranchId branch) {
  DECIBEL_ASSIGN_OR_RETURN(CommitId commit, graph_.AddCommit(branch));
  if (durable()) {
    // The commit id is graph-assigned, so the record is logged right
    // after allocation and before the engine snapshot — replay re-applies
    // both sides idempotently from the id.
    wal::CommitBody b;
    b.branch = branch;
    b.commit = commit;
    DECIBEL_ASSIGN_OR_RETURN(CommitInfo info, graph_.GetCommit(commit));
    b.parents = std::move(info.parents);
    std::string body;
    wal::EncodeCommitBody(&body, b);
    DECIBEL_RETURN_NOT_OK(LogWal(wal::RecordType::kCommit, body));
  }
  DECIBEL_RETURN_NOT_OK(engine_->Commit(branch, commit));
  const uint64_t ops = TakeDirty(branch);
  CommitEvent event;
  event.branch = branch;
  if (Result<BranchInfo> info = graph_.GetBranch(branch); info.ok()) {
    event.branch_name = info->name;
  }
  event.commit = commit;
  event.records = ops;
  publisher_.Publish(std::move(event));
  return commit;
}

Result<CommitId> Decibel::EnsureCommitted(BranchId branch) {
  if (IsDirty(branch)) {
    return CommitLocked(branch);
  }
  return graph_.Head(branch);
}

Result<CommitId> Decibel::Commit(Session* session) {
  if (!session->at_head()) {
    return Status::InvalidArgument(
        "commits are not allowed to non-head versions (§2.2.3)");
  }
  return CommitBranch(session->branch_);
}

Result<CommitId> Decibel::CommitBranch(BranchId branch) {
  DECIBEL_ASSIGN_OR_RETURN(
      LockGuard guard, LockGuard::Acquire(&locks_, NextOwnerId(), branch,
                                          LockMode::kExclusive));
  std::shared_lock<std::shared_mutex> barrier(checkpoint_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  return CommitLocked(branch);
}

Result<BranchId> Decibel::Branch(const std::string& name, Session* session) {
  if (!session->at_head()) {
    // Branching from a checkout = branching at that commit.
    return BranchAt(name, session->checked_out_);
  }
  const BranchId parent = session->branch_;
  DECIBEL_ASSIGN_OR_RETURN(
      LockGuard guard, LockGuard::Acquire(&locks_, NextOwnerId(), parent,
                                          LockMode::kExclusive));
  std::shared_lock<std::shared_mutex> barrier(checkpoint_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  DECIBEL_ASSIGN_OR_RETURN(CommitId base, EnsureCommitted(parent));
  DECIBEL_ASSIGN_OR_RETURN(BranchId child, graph_.CreateBranch(name, base));
  DECIBEL_RETURN_NOT_OK(
      LogBranchCreation(child, name, base, parent, /*at_head=*/true));
  DECIBEL_RETURN_NOT_OK(
      engine_->CreateBranch(child, parent, base, /*at_head=*/true));
  num_branches_.store(graph_.num_branches(), std::memory_order_release);
  return child;
}

Result<BranchId> Decibel::BranchAt(const std::string& name, CommitId commit) {
  BranchId parent = kInvalidBranch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DECIBEL_ASSIGN_OR_RETURN(CommitInfo info, graph_.GetCommit(commit));
    parent = info.branch;
  }
  // Shared on the commit's branch: a transaction still applying there
  // has written the engine but not yet marked the branch dirty, and a
  // fork that read it as clean would clone its uncommitted rows.
  DECIBEL_ASSIGN_OR_RETURN(
      LockGuard guard, LockGuard::Acquire(&locks_, NextOwnerId(), parent,
                                          LockMode::kShared));
  std::shared_lock<std::shared_mutex> barrier(checkpoint_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  const bool at_head = graph_.Head(parent) == commit && !IsDirty(parent);
  DECIBEL_ASSIGN_OR_RETURN(BranchId child, graph_.CreateBranch(name, commit));
  DECIBEL_RETURN_NOT_OK(LogBranchCreation(child, name, commit, parent, at_head));
  DECIBEL_RETURN_NOT_OK(engine_->CreateBranch(child, parent, commit, at_head));
  num_branches_.store(graph_.num_branches(), std::memory_order_release);
  return child;
}

Status Decibel::RetireBranch(BranchId branch) {
  if (branch == kMasterBranch) {
    return Status::InvalidArgument("cannot retire master");
  }
  if (branch >= num_branches_.load(std::memory_order_acquire)) {
    return Status::NotFound("no branch " + std::to_string(branch));
  }
  // Exclusive, as Branch and Merge take it: a write in flight on the
  // branch finishes first, and one after it finds the branch retired.
  DECIBEL_ASSIGN_OR_RETURN(
      LockGuard guard, LockGuard::Acquire(&locks_, NextOwnerId(), branch,
                                          LockMode::kExclusive));
  std::shared_lock<std::shared_mutex> barrier(checkpoint_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  DECIBEL_ASSIGN_OR_RETURN(BranchInfo info, graph_.GetBranch(branch));
  if (!info.active) {
    return Status::InvalidArgument("branch " + std::to_string(branch) +
                                   " is already retired");
  }
  // Pending writes are committed first, so the retired head is a commit
  // that holds every row the branch reads.
  DECIBEL_RETURN_NOT_OK(EnsureCommitted(branch).status());
  if (durable()) {
    std::string body;
    wal::EncodeRetireBody(&body, branch);
    DECIBEL_RETURN_NOT_OK(LogWal(wal::RecordType::kRetire, body));
  }
  // Retirement is soft: the branch's commits stay merge-able ancestors
  // and its storage stays shared (§4 — deltas are never reclaimed per
  // branch), but it drops out of ActiveBranches / HEADS scans and takes
  // no more writes.
  graph_.SetActive(branch, false);
  {
    std::lock_guard<std::mutex> dirty_lock(dirty_mu_);
    retired_.insert(branch);
  }
  // Drop the file descriptors the branch pinned (head segment, commit
  // histories) — under agentic fork/merge/retire churn the held handles
  // otherwise accumulate until the process hits its descriptor limit.
  return engine_->ReleaseBranch(branch);
}

Status Decibel::LogBranchCreation(BranchId child, const std::string& name,
                                  CommitId base, BranchId parent,
                                  bool at_head) {
  if (!durable()) return Status::OK();
  wal::BranchBody b;
  b.child = child;
  b.name = name;
  b.base = base;
  b.parent_branch = parent;
  b.at_head = at_head;
  b.head = graph_.Head(child);
  std::string body;
  wal::EncodeBranchBody(&body, b);
  return LogWal(wal::RecordType::kBranch, body);
}

Result<MergeInfo> Decibel::Merge(BranchId into, BranchId from,
                                 MergePolicy policy) {
  return Merge(MergeSpec::Branches(into, from).WithPolicy(policy));
}

Result<MergeInfo> Decibel::Merge(const MergeSpec& spec) {
  // One lock scope for the whole merge: exclusive on the target, shared
  // on the source, released together (strict 2PL's shrink phase).
  LockScope scope(&locks_, NextOwnerId());
  DECIBEL_RETURN_NOT_OK(scope.Lock(spec.into, LockMode::kExclusive));
  DECIBEL_RETURN_NOT_OK(scope.Lock(spec.from, LockMode::kShared));

  std::shared_lock<std::shared_mutex> barrier(checkpoint_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  DECIBEL_RETURN_NOT_OK(CheckWritable(spec.into));
  // Both heads must be committed so the lca and the merge commit are
  // well-defined versions.
  DECIBEL_ASSIGN_OR_RETURN(CommitId head_into, EnsureCommitted(spec.into));
  DECIBEL_ASSIGN_OR_RETURN(CommitId head_from, EnsureCommitted(spec.from));
  DECIBEL_ASSIGN_OR_RETURN(CommitId lca, graph_.Lca(head_into, head_from));

  // Stage first. Staging is pure — the walk, the conflict classification
  // and any user callback run here, against committed state, writing
  // nothing — so every data-dependent failure aborts the merge before a
  // commit id is allocated or a WAL byte is written. (The previous
  // ordering registered the graph commit and logged the kMerge record
  // *before* running the engine merge; an engine-side failure then left
  // a phantom commit in the graph and a WAL record that replayed a merge
  // which never happened.)
  MergePlan plan(&schema_);
  StageOptions opts;
  opts.policy = spec.policy;
  opts.resolution = spec.resolution;
  opts.on_conflict = &spec.on_conflict;
  DECIBEL_RETURN_NOT_OK(StageMerge(engine_.get(), schema_, head_into,
                                   head_from, lca, opts, &plan));

  // Execute: graph commit, WAL record (carrying the resolved batch),
  // engine apply through the one write path, engine snapshot.
  DECIBEL_ASSIGN_OR_RETURN(CommitId commit,
                           graph_.AddMergeCommit(spec.into, spec.from));
  if (durable()) {
    wal::MergeBody b;
    b.into = spec.into;
    b.from = spec.from;
    b.lca = lca;
    b.commit = commit;
    b.policy = spec.policy;
    DECIBEL_ASSIGN_OR_RETURN(CommitInfo minfo, graph_.GetCommit(commit));
    b.parents = std::move(minfo.parents);
    wal::EncodeBatchBody(&b.batch_body, spec.into, plan.batch);
    std::string body;
    wal::EncodeMergeBody(&body, b);
    DECIBEL_RETURN_NOT_OK(LogWal(wal::RecordType::kMerge, body));
  }
  if (plan.batch.size() > 0) {
    DECIBEL_RETURN_NOT_OK(engine_->ApplyBatch(spec.into, plan.batch));
  }
  DECIBEL_RETURN_NOT_OK(engine_->Commit(spec.into, commit));
  TakeDirty(spec.into);
  CommitEvent event;
  event.branch = spec.into;
  if (Result<BranchInfo> binfo = graph_.GetBranch(spec.into); binfo.ok()) {
    event.branch_name = binfo->name;
  }
  event.commit = commit;
  event.records = plan.batch.size();
  event.merge = true;
  publisher_.Publish(std::move(event));
  MergeInfo info;
  info.commit = commit;
  info.result = plan.result;
  return info;
}

Result<std::unique_ptr<MergeCursor>> Decibel::PreviewMerge(
    const MergeSpec& spec) {
  // Same locks as Merge — EnsureCommitted may have to commit either head
  // — but staging runs with stage_ops off and collect_rows on: nothing
  // is written anywhere, and the per-key rows feed the cursor.
  LockScope scope(&locks_, NextOwnerId());
  DECIBEL_RETURN_NOT_OK(scope.Lock(spec.into, LockMode::kExclusive));
  DECIBEL_RETURN_NOT_OK(scope.Lock(spec.from, LockMode::kShared));

  std::shared_lock<std::shared_mutex> barrier(checkpoint_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  DECIBEL_ASSIGN_OR_RETURN(CommitId head_into, EnsureCommitted(spec.into));
  DECIBEL_ASSIGN_OR_RETURN(CommitId head_from, EnsureCommitted(spec.from));
  DECIBEL_ASSIGN_OR_RETURN(CommitId lca, graph_.Lca(head_into, head_from));

  MergePlan plan(&schema_);
  StageOptions opts;
  opts.policy = spec.policy;
  opts.resolution = spec.resolution;
  opts.on_conflict = &spec.on_conflict;
  opts.collect_rows = true;
  opts.stage_ops = false;
  DECIBEL_RETURN_NOT_OK(StageMerge(engine_.get(), schema_, head_into,
                                   head_from, lca, opts, &plan));
  return MakeMergeCursor(std::move(plan.rows), plan.result);
}

Result<std::unique_ptr<MergeCursor>> Decibel::DiffCommits(CommitId a,
                                                          CommitId b) {
  // Commits are immutable, so the walk itself needs no branch locks;
  // only the ancestor lookup touches the graph.
  CommitId base = kInvalidCommit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto lca = graph_.Lca(a, b);
    if (!lca.ok()) return lca.status();
    base = *lca;
  }
  MergePlan plan(&schema_);
  DECIBEL_RETURN_NOT_OK(StageDiff(engine_.get(), schema_, a, b, base, &plan));
  return MakeMergeCursor(std::move(plan.rows), plan.result);
}

// ----------------------------------------------------------------- mutation

Status Decibel::WriteGuard(const Session& session) const {
  if (!session.at_head()) {
    return Status::InvalidArgument(
        "session has a historical checkout; writes must target a branch "
        "head");
  }
  return Status::OK();
}

Status Decibel::ApplyBatchLocked(BranchId branch, const WriteBatch& batch) {
  // Caller holds the branch's exclusive lock. The checkpoint barrier is
  // shared — batches on different branches log and apply concurrently
  // (the WAL writer group-commits their fsyncs) — and spans both the log
  // append and the engine apply so a checkpoint never captures one
  // without the other.
  std::shared_lock<std::shared_mutex> barrier(checkpoint_mu_);
  DECIBEL_RETURN_NOT_OK(CheckWritable(branch));
  if (durable()) {
    std::string body;
    wal::EncodeBatchBody(&body, branch, batch);
    DECIBEL_RETURN_NOT_OK(LogWal(wal::RecordType::kBatch, body));
  }
  DECIBEL_RETURN_NOT_OK(engine_->ApplyBatch(branch, batch));
  std::lock_guard<std::mutex> lock(dirty_mu_);
  dirty_[branch] += batch.size();
  return Status::OK();
}

Status Decibel::CommitTransaction(BranchId branch, uint64_t owner,
                                  const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  DECIBEL_ASSIGN_OR_RETURN(
      LockGuard guard,
      LockGuard::Acquire(&locks_, owner, branch, LockMode::kExclusive));
  return ApplyBatchLocked(branch, batch);
}

Status Decibel::ApplyBatch(BranchId branch, const WriteBatch& batch) {
  return CommitTransaction(branch, NextOwnerId(), batch);
}

Status Decibel::InsertInto(BranchId branch, const Record& record) {
  WriteBatch batch(&schema_);
  batch.Insert(record);
  return ApplyBatch(branch, batch);
}

Status Decibel::UpdateIn(BranchId branch, const Record& record) {
  WriteBatch batch(&schema_);
  batch.Update(record);
  return ApplyBatch(branch, batch);
}

Status Decibel::DeleteFrom(BranchId branch, int64_t pk) {
  WriteBatch batch(&schema_);
  batch.Delete(pk);
  return ApplyBatch(branch, batch);
}

Status Decibel::CheckWritable(BranchId branch) const {
  std::lock_guard<std::mutex> lock(dirty_mu_);
  if (retired_.count(branch) != 0) {
    return Status::InvalidArgument("branch " + std::to_string(branch) +
                                   " is retired and takes no writes");
  }
  return Status::OK();
}

bool Decibel::IsDirty(BranchId branch) const {
  std::lock_guard<std::mutex> lock(dirty_mu_);
  return dirty_.count(branch) != 0;
}

uint64_t Decibel::TakeDirty(BranchId branch) {
  std::lock_guard<std::mutex> lock(dirty_mu_);
  auto it = dirty_.find(branch);
  if (it == dirty_.end()) return 0;
  const uint64_t ops = it->second;
  dirty_.erase(it);
  return ops;
}

bool Decibel::HasBranch(BranchId branch) const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_.HasBranch(branch);
}

Result<BranchId> Decibel::FindBranchByName(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_.FindBranchByName(name);
}

std::vector<BranchInfo> Decibel::ListBranches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_.branches();
}

CommitId Decibel::Head(BranchId branch) const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_.Head(branch);
}

Result<CommitInfo> Decibel::GetCommit(CommitId commit) const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_.GetCommit(commit);
}

DecibelStats Decibel::Stats() const {
  DecibelStats stats;
  stats.engine = engine_->Stats();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.branches = graph_.num_branches();
    stats.active_branches = graph_.ActiveBranches().size();
    stats.commits = graph_.num_commits();
  }
  stats.durable = durable();
  {
    // Writer counters and the manifest generation move under
    // checkpoint_mu_ unique; shared is enough for a consistent read.
    std::shared_lock<std::shared_mutex> barrier(checkpoint_mu_);
    stats.wal_bytes_appended = wal_->bytes_appended();
    stats.wal_segment_seq = wal_->segment_seq();
    stats.wal_last_lsn = wal_->last_lsn();
    stats.wal_syncs = wal_->syncs();
    stats.wal_syncs_in_flight_max = wal_->syncs_in_flight_max();
    stats.checkpoint_generation = manifest_.version;
  }
  stats.subscriptions = publisher_.num_subscriptions();
  stats.events_published = publisher_.events_published();
  return stats;
}

// ------------------------------------------------------------------ queries

Result<std::unique_ptr<ScanCursor>> Decibel::NewScan(ScanSpec spec) {
  if (spec.view == ScanView::kHeads) {
    // Resolve "all active branch heads" against the version graph; the
    // engines only understand explicit branch lists.
    std::lock_guard<std::mutex> lock(mu_);
    spec.view = ScanView::kMulti;
    spec.branches = graph_.ActiveBranches();
  }
  return engine_->NewScan(spec);
}

Result<std::unique_ptr<ScanCursor>> Decibel::NewScan(const Session& session,
                                                     ScanSpec spec) {
  // The session decides the view: a historical checkout reads its commit,
  // everything else the branch head (§2.2.3 Checkout is read-only).
  if (session.at_head()) {
    spec.view = ScanView::kBranch;
    spec.branch = session.branch();
  } else {
    spec.view = ScanView::kCommit;
    spec.commit = session.checked_out();
  }
  return NewScan(std::move(spec));
}

Result<Record> Decibel::Get(const Session& session, int64_t pk) {
  if (session.at_head()) return Get(session.branch(), pk);
  return GetAt(session.checked_out(), pk);
}

Result<Record> Decibel::Get(BranchId branch, int64_t pk) {
  return engine_->Get(branch, pk);
}

Result<Record> Decibel::GetAt(CommitId commit, int64_t pk) {
  // Commits have no pk index; a pushed-down pk-equality scan with limit 1
  // is the engine-agnostic lookup (version-first stops at the first
  // version of the key, the bitmap engines pay one filtered pass).
  Comparison by_pk;
  by_pk.column = 0;
  by_pk.op = CompareOp::kEq;
  by_pk.int_value = pk;
  DECIBEL_ASSIGN_OR_RETURN(
      auto cursor, NewScan(ScanSpec::Commit(commit)
                               .Where(Predicate().And(std::move(by_pk)))
                               .WithLimit(1)));
  ScanRow row;
  if (cursor->Next(&row)) return Record(&schema_, row.record.data());
  DECIBEL_RETURN_NOT_OK(cursor->status());
  return Status::NotFound("no record with pk " + std::to_string(pk) +
                          " in commit " + std::to_string(commit));
}

Status Decibel::Flush() { return CheckpointNow(); }

}  // namespace decibel
