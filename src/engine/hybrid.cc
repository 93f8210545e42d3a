#include "engine/hybrid.h"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <optional>

#include "common/coding.h"
#include "common/thread_pool.h"
#include "engine/bitmap_scan.h"
#include "engine/diff_util.h"
#include "engine/scan_util.h"

namespace decibel {

namespace {

uint64_t HistoryKey(BranchId branch, uint32_t seg) {
  return (static_cast<uint64_t>(branch) << 32) | seg;
}

}  // namespace

// ------------------------------------------------------------ construction

Result<std::unique_ptr<HybridEngine>> HybridEngine::Make(
    const Schema& schema, const EngineOptions& options) {
  std::unique_ptr<HybridEngine> engine(new HybridEngine(schema, options));
  DECIBEL_RETURN_NOT_OK(CreateDir(options.directory));
  DECIBEL_RETURN_NOT_OK(CreateDir(JoinPath(options.directory, "commits")));
  if (!options.checkpoint_tag.empty()) {
    DECIBEL_RETURN_NOT_OK(engine->LoadExisting());
  } else {
    DECIBEL_RETURN_NOT_OK(engine->InitFresh());
  }
  return engine;
}

std::string HybridEngine::MetaPath(const std::string& tag) const {
  return JoinPath(options_.directory, "engine.meta." + tag);
}

std::string HybridEngine::SegmentPath(uint32_t seg) const {
  return JoinPath(options_.directory, "seg_" + std::to_string(seg) + ".dbhf");
}

std::string HybridEngine::HistoryPath(BranchId branch, uint32_t seg) const {
  return JoinPath(options_.directory,
                  "commits/b" + std::to_string(branch) + "_s" +
                      std::to_string(seg) + ".hist");
}

Result<uint32_t> HybridEngine::NewHeadSegment(BranchId owner) {
  auto segment = std::make_unique<Segment>();
  segment->id = static_cast<uint32_t>(segments_.size());
  segment->owner = owner;
  segment->is_head = true;
  HeapFile::Options hopts;
  hopts.page_size = options_.page_size;
  hopts.schema = &schema_;
  hopts.compress_pages = options_.compress_pages;
  DECIBEL_ASSIGN_OR_RETURN(
      segment->file, HeapFile::Create(SegmentPath(segment->id),
                                      schema_.record_size(), hopts, &pool_));
  segment->local.AddBranch(owner);
  const uint32_t id = segment->id;
  segments_.push_back(std::move(segment));
  head_seg_[owner] = id;
  branch_segments_[owner].Set(id);
  return id;
}

Status HybridEngine::InitFresh() {
  pk_index_.try_emplace(kMasterBranch);
  branch_segments_.try_emplace(kMasterBranch);
  dirty_.try_emplace(kMasterBranch);
  return NewHeadSegment(kMasterBranch).status();
}

Status HybridEngine::LoadExisting() {
  const std::string& tag = options_.checkpoint_tag;
  DECIBEL_ASSIGN_OR_RETURN(std::string meta, ReadFileToString(MetaPath(tag)));
  Slice input(meta);
  DECIBEL_RETURN_NOT_OK(CheckEngineMetaHeader(&input, "hybrid"));
  Slice schema_blob;
  if (!GetLengthPrefixed(&input, &schema_blob)) {
    return Status::Corruption("hybrid: truncated meta");
  }
  Slice schema_slice = schema_blob;
  DECIBEL_ASSIGN_OR_RETURN(Schema stored, Schema::DecodeFrom(&schema_slice));
  if (!(stored == schema_)) {
    return Status::InvalidArgument("hybrid: schema mismatch on reopen");
  }
  uint64_t num_segments;
  if (!GetVarint64(&input, &num_segments)) {
    return Status::Corruption("hybrid: truncated meta");
  }
  HeapFile::Options hopts;
  hopts.schema = &schema_;
  hopts.compress_pages = options_.compress_pages;
  for (uint64_t i = 0; i < num_segments; ++i) {
    auto segment = std::make_unique<Segment>();
    if (!GetVarint32(&input, &segment->id) ||
        !GetVarint32(&input, &segment->owner) || input.empty()) {
      return Status::Corruption("hybrid: truncated segment meta");
    }
    if (segment->id != segments_.size()) {
      return Status::Corruption("hybrid: segment ids not dense");
    }
    segment->is_head = input[0] != 0;
    input.RemovePrefix(1);
    DECIBEL_ASSIGN_OR_RETURN(
        auto local_index, BitmapIndex::DecodeFrom(&input));
    auto* branch_oriented =
        dynamic_cast<BranchOrientedIndex*>(local_index.get());
    if (branch_oriented == nullptr) {
      return Status::Corruption("hybrid: local index wrong orientation");
    }
    segment->local = std::move(*branch_oriented);
    HeapFile::CheckpointState cs;
    uint32_t tail_crc;
    if (!GetVarint64(&input, &cs.num_records) ||
        !GetVarint32(&input, &tail_crc)) {
      return Status::Corruption("hybrid: truncated segment state");
    }
    cs.tail_crc = tail_crc;
    Slice stats_blob;
    if (!GetLengthPrefixed(&input, &stats_blob)) {
      return Status::Corruption("hybrid: truncated segment stats blob");
    }
    DECIBEL_ASSIGN_OR_RETURN(
        segment->file,
        HeapFile::OpenAtCheckpoint(SegmentPath(segment->id), hopts, &pool_,
                                   cs));
    DECIBEL_RETURN_NOT_OK(segment->file->LoadStats(stats_blob));
    DECIBEL_RETURN_NOT_OK(segment->file->EnsureStats());
    segments_.push_back(std::move(segment));
  }
  uint64_t num_heads;
  if (!GetVarint64(&input, &num_heads)) {
    return Status::Corruption("hybrid: truncated head map");
  }
  for (uint64_t i = 0; i < num_heads; ++i) {
    uint32_t branch, seg;
    if (!GetVarint32(&input, &branch) || !GetVarint32(&input, &seg)) {
      return Status::Corruption("hybrid: truncated head entry");
    }
    if (seg >= segments_.size()) {
      return Status::Corruption("hybrid: head points past segments");
    }
    head_seg_[branch] = seg;
  }
  uint64_t num_rows;
  if (!GetVarint64(&input, &num_rows)) {
    return Status::Corruption("hybrid: truncated branch-segment bitmap");
  }
  for (uint64_t i = 0; i < num_rows; ++i) {
    uint32_t branch;
    Bitmap row;
    if (!GetVarint32(&input, &branch) || !Bitmap::DecodeFrom(&input, &row)) {
      return Status::Corruption("hybrid: truncated bitmap row");
    }
    if (row.size() > segments_.size()) {
      return Status::Corruption("hybrid: bitmap row points past segments");
    }
    branch_segments_[branch] = std::move(row);
    pk_index_.try_emplace(branch);
    dirty_.try_emplace(branch);
  }
  uint64_t num_commits;
  if (!GetVarint64(&input, &num_commits)) {
    return Status::Corruption("hybrid: truncated commit registry");
  }
  for (uint64_t i = 0; i < num_commits; ++i) {
    uint64_t commit;
    uint32_t branch;
    if (!GetVarint64(&input, &commit) || !GetVarint32(&input, &branch)) {
      return Status::Corruption("hybrid: truncated commit entry");
    }
    commit_branch_[commit] = branch;
  }
  uint64_t num_hist;
  if (!GetVarint64(&input, &num_hist)) {
    return Status::Corruption("hybrid: truncated history registry");
  }
  for (uint64_t i = 0; i < num_hist; ++i) {
    uint32_t branch, seg;
    uint64_t bytes;
    if (!GetVarint32(&input, &branch) || !GetVarint32(&input, &seg) ||
        !GetVarint64(&input, &bytes)) {
      return Status::Corruption("hybrid: truncated history entry");
    }
    if (seg >= segments_.size()) {
      return Status::Corruption("hybrid: history points past segments");
    }
    history_segs_[branch].push_back(seg);
    // History files open lazily (HistoryFor); cut post-checkpoint records
    // away now so whoever opens one first parses the checkpointed state.
    DECIBEL_RETURN_NOT_OK(TruncateFile(HistoryPath(branch, seg), bytes));
  }
  uint64_t num_inherits;
  if (!GetVarint64(&input, &num_inherits)) {
    return Status::Corruption("hybrid: truncated inherited-column registry");
  }
  for (uint64_t i = 0; i < num_inherits; ++i) {
    uint32_t branch;
    uint64_t base;
    if (!GetVarint32(&input, &branch) || !GetVarint64(&input, &base)) {
      return Status::Corruption("hybrid: truncated inherited-column entry");
    }
    if (commit_branch_.count(base) == 0) {
      return Status::Corruption("hybrid: branch " + std::to_string(branch) +
                                " inherits from unknown commit " +
                                std::to_string(base));
    }
    inherits_[branch] = base;
  }
  uint64_t num_dirty;
  if (!GetVarint64(&input, &num_dirty)) {
    return Status::Corruption("hybrid: truncated dirty-segment sets");
  }
  for (uint64_t i = 0; i < num_dirty; ++i) {
    uint32_t branch;
    uint64_t count;
    if (!GetVarint32(&input, &branch) || !GetVarint64(&input, &count)) {
      return Status::Corruption("hybrid: truncated dirty-segment set");
    }
    auto dirty_it = dirty_.find(branch);
    if (dirty_it == dirty_.end()) {
      return Status::Corruption("hybrid: dirty segments of unknown branch " +
                                std::to_string(branch));
    }
    for (uint64_t j = 0; j < count; ++j) {
      uint32_t seg;
      if (!GetVarint32(&input, &seg)) {
        return Status::Corruption("hybrid: truncated dirty-segment set");
      }
      if (seg >= segments_.size()) {
        return Status::Corruption("hybrid: dirty segment past segments");
      }
      dirty_it->second.insert(seg);
    }
  }
  // The pk indexes are memory-only; rebuild them from the local bitmaps.
  for (const auto& [branch, row] : branch_segments_) {
    DECIBEL_RETURN_NOT_OK(RebuildPkIndex(branch));
  }
  return Status::OK();
}

std::string HybridEngine::EncodeMeta() {
  std::string meta;
  PutEngineMetaHeader(&meta);
  std::string schema_blob;
  schema_.EncodeTo(&schema_blob);
  PutLengthPrefixed(&meta, schema_blob);
  PutVarint64(&meta, segments_.size());
  for (const auto& segment : segments_) {
    PutVarint32(&meta, segment->id);
    PutVarint32(&meta, segment->owner);
    meta.push_back(segment->is_head ? 1 : 0);
    segment->local.EncodeTo(&meta);
    const HeapFile::CheckpointState cs = segment->file->GetCheckpointState();
    PutVarint64(&meta, cs.num_records);
    PutVarint32(&meta, cs.tail_crc);
    std::string stats_blob;
    segment->file->EncodeStats(&stats_blob);
    PutLengthPrefixed(&meta, stats_blob);
  }
  PutVarint64(&meta, head_seg_.size());
  for (const auto& [branch, seg] : head_seg_) {
    PutVarint32(&meta, branch);
    PutVarint32(&meta, seg);
  }
  PutVarint64(&meta, branch_segments_.size());
  for (const auto& [branch, row] : branch_segments_) {
    PutVarint32(&meta, branch);
    row.EncodeTo(&meta);
  }
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    PutVarint64(&meta, commit_branch_.size());
    for (const auto& [commit, branch] : commit_branch_) {
      PutVarint64(&meta, commit);
      PutVarint32(&meta, branch);
    }
    uint64_t hist_entries = 0;
    for (const auto& [branch, segs] : history_segs_) {
      hist_entries += segs.size();
    }
    PutVarint64(&meta, hist_entries);
    for (const auto& [branch, segs] : history_segs_) {
      for (uint32_t seg : segs) {
        PutVarint32(&meta, branch);
        PutVarint32(&meta, seg);
        // Lazily-opened histories may not be in histories_; their on-disk
        // size is still the truth (records are flushed as written).
        auto it = histories_.find(HistoryKey(branch, seg));
        uint64_t bytes = 0;
        if (it != histories_.end()) {
          bytes = it->second->SizeBytes();
        } else {
          Result<uint64_t> sz = FileSize(HistoryPath(branch, seg));
          if (sz.ok()) bytes = sz.value();
        }
        PutVarint64(&meta, bytes);
      }
    }
    PutVarint64(&meta, inherits_.size());
    for (const auto& [branch, base] : inherits_) {
      PutVarint32(&meta, branch);
      PutVarint64(&meta, base);
    }
  }
  // The dirty sets: a checkpoint can capture writes no commit recorded
  // yet, and the commit that follows a reopen must still record them.
  uint64_t dirty_branches = 0;
  for (const auto& [branch, segs] : dirty_) {
    if (!segs.empty()) ++dirty_branches;
  }
  PutVarint64(&meta, dirty_branches);
  for (const auto& [branch, segs] : dirty_) {
    if (segs.empty()) continue;
    PutVarint32(&meta, branch);
    PutVarint64(&meta, segs.size());
    for (uint32_t seg : segs) PutVarint32(&meta, seg);
  }
  return meta;
}

Status HybridEngine::ReleaseBranch(BranchId branch) {
  // A retired branch's head segment never appends again and its history
  // files never grow past their final commit, so close their descriptors.
  // Registry entries stay: the data remains readable (handles reopen
  // lazily) and the meta encoding is unchanged.
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  for (auto& segment : segments_) {
    if (segment->owner != branch) continue;
    DECIBEL_RETURN_NOT_OK(segment->file->ReleaseFileHandles());
  }
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  for (auto& [key, history] : histories_) {
    if (static_cast<BranchId>(key >> 32) != branch) continue;
    DECIBEL_RETURN_NOT_OK(history->ReleaseFileHandles());
  }
  return Status::OK();
}

Status HybridEngine::Checkpoint(const std::string& tag, bool sync) {
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  for (auto& segment : segments_) {
    DECIBEL_RETURN_NOT_OK(sync ? segment->file->Sync()
                               : segment->file->Flush());
  }
  if (sync) {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    for (auto& [key, history] : histories_) {
      DECIBEL_RETURN_NOT_OK(history->Sync());
    }
  }
  return AtomicWriteFile(MetaPath(tag), EncodeMeta(), sync);
}

Status HybridEngine::RemoveCheckpoint(const std::string& tag) {
  return RemoveFile(MetaPath(tag));
}

// --------------------------------------------------------- version control

std::vector<uint32_t> HybridEngine::SegmentsOf(BranchId b) const {
  std::vector<uint32_t> out;
  auto it = branch_segments_.find(b);
  if (it == branch_segments_.end()) return out;
  it->second.ForEachSet(
      [&](uint64_t seg) { out.push_back(static_cast<uint32_t>(seg)); });
  return out;
}

bool HybridEngine::HistoryKnownLocked(BranchId branch, uint32_t seg) const {
  auto segs_it = history_segs_.find(branch);
  return segs_it != history_segs_.end() &&
         std::find(segs_it->second.begin(), segs_it->second.end(), seg) !=
             segs_it->second.end();
}

Result<CommitHistory*> HybridEngine::HistoryFor(BranchId branch,
                                                uint32_t seg) {
  // Held across the (rare) first open of a history file: concurrent
  // readers of the same commit would otherwise race to create one.
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  const uint64_t key = HistoryKey(branch, seg);
  auto it = histories_.find(key);
  if (it != histories_.end()) return it->second.get();
  const std::string path = HistoryPath(branch, seg);
  // The registry (restored from the meta on reopen) is authoritative: a
  // history file on disk for a (branch, seg) the registry does not know
  // is stale post-checkpoint debris from a crash, and Create truncates
  // it away (WAL replay re-appends its commits).
  const bool known = HistoryKnownLocked(branch, seg);
  Result<std::unique_ptr<CommitHistory>> h =
      known ? CommitHistory::Open(
                  path, {.composite_every = options_.composite_every})
            : CommitHistory::Create(
                  path, {.composite_every = options_.composite_every});
  if (!h.ok()) return h.status();
  CommitHistory* raw = h.value().get();
  histories_.emplace(key, std::move(h).MoveValueUnsafe());
  if (!known) history_segs_[branch].push_back(seg);
  return raw;
}

Status HybridEngine::CreateBranch(BranchId child, BranchId parent,
                                  CommitId base_commit, bool at_head) {
  // Grows segments_, the branch maps, and local-index column sets.
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  {
    // The child's committed columns are its base commit's until it
    // writes them (see inherits_), so no history is copied here.
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    if (commit_branch_.count(base_commit) == 0) {
      return Status::NotFound("hybrid: unknown base commit " +
                              std::to_string(base_commit));
    }
    inherits_[child] = base_commit;
  }
  pk_index_.try_emplace(child);
  branch_segments_.try_emplace(child);
  dirty_.try_emplace(child);
  if (at_head) {
    // §3.4 Branch: the parent's head freezes into an internal segment
    // whose bitmap gains a column for the child; both branches get fresh
    // head segments. The clone touches only segments in the direct
    // ancestry, not a global bitmap. The parent's live columns equal its
    // columns at base_commit except in the segments it dirtied since
    // (normally none: the facade commits before branching, but writes a
    // checkpoint captured uncommitted are still dirty after a reopen).
    // The child's live columns there differ from base_commit's too, so
    // they are dirty for the child as well.
    const uint32_t old_head = head_seg_[parent];
    segments_[old_head]->is_head = false;
    DECIBEL_RETURN_NOT_OK(segments_[old_head]->file->Seal());
    for (uint32_t seg : SegmentsOf(parent)) {
      segments_[seg]->local.CloneBranch(parent, child);
      branch_segments_[child].Set(seg);
    }
    const std::unordered_set<uint32_t>& parent_dirty = dirty_[parent];
    dirty_[child].insert(parent_dirty.begin(), parent_dirty.end());
    pk_index_[child] = pk_index_[parent];
    DECIBEL_RETURN_NOT_OK(NewHeadSegment(parent).status());
    DECIBEL_RETURN_NOT_OK(NewHeadSegment(child).status());
    // Only a branch's current head takes new records, so the parent's
    // history for the old head is normally never appended again. Close
    // its descriptors — under fork churn one held writer per rolled head
    // otherwise accumulates without bound. Reads, and the append of a
    // parent still dirty there, lazily reopen.
    {
      std::lock_guard<std::mutex> commit_lock(commit_mu_);
      auto hist_it = histories_.find(HistoryKey(parent, old_head));
      if (hist_it != histories_.end()) {
        DECIBEL_RETURN_NOT_OK(hist_it->second->ReleaseFileHandles());
      }
    }
    return Status::OK();
  }
  // Branch from a historical commit: restore the parent's per-segment
  // columns as of that commit into the child's live columns.
  std::vector<std::pair<uint32_t, Bitmap>> columns;
  DECIBEL_RETURN_NOT_OK(CommitColumns(base_commit, &columns));
  for (auto& [seg, bits] : columns) {
    if (!bits.Any()) continue;
    segments_[seg]->local.AddBranch(child);
    segments_[seg]->local.RestoreBranch(child, bits);
    branch_segments_[child].Set(seg);
  }
  DECIBEL_RETURN_NOT_OK(NewHeadSegment(child).status());
  return RebuildPkIndex(child);
}

Status HybridEngine::Commit(BranchId branch, CommitId commit_id) {
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  // The stripe pins the branch's columns and dirty set while they are
  // snapshotted into the history files.
  std::lock_guard<std::mutex> stripe_lock(stripes_.ForBranch(branch));
  return CommitImpl(branch, commit_id);
}

Status HybridEngine::CommitImpl(BranchId branch, CommitId commit_id) {
  auto dirty_it = dirty_.find(branch);
  if (dirty_it != dirty_.end()) {
    // Deterministic order keeps history files reproducible.
    std::vector<uint32_t> segs(dirty_it->second.begin(),
                               dirty_it->second.end());
    std::sort(segs.begin(), segs.end());
    const auto head_it = head_seg_.find(branch);
    for (uint32_t seg : segs) {
      const Bitmap* view = segments_[seg]->local.BranchView(branch);
      if ((view == nullptr || !view->Any()) &&
          segments_[seg]->owner == branch) {
        // A head segment of this branch whose records were all deleted
        // before any commit recorded them is younger than the branch's
        // base, so with no history its column reads as empty: no file
        // needed yet.
        std::lock_guard<std::mutex> commit_lock(commit_mu_);
        if (!HistoryKnownLocked(branch, seg)) continue;
      }
      DECIBEL_ASSIGN_OR_RETURN(CommitHistory * history,
                               HistoryFor(branch, seg));
      Bitmap empty;
      DECIBEL_RETURN_NOT_OK(
          history->AppendCommit(commit_id, view ? *view : empty));
      // A segment that is no longer this branch's head can never be
      // dirtied by it again, so this append was the history's last:
      // close its descriptors rather than pinning one writer per rolled
      // head forever (reads reopen transiently).
      if (head_it == head_seg_.end() || seg != head_it->second) {
        DECIBEL_RETURN_NOT_OK(history->ReleaseFileHandles());
      }
    }
    dirty_it->second.clear();
  }
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  commit_branch_[commit_id] = branch;
  return Status::OK();
}

Status HybridEngine::ResolveColumns(CommitId commit,
                                    std::vector<ColumnRef>* out) {
  // Walk commit -> its branch's histories -> that branch's base commit ->
  // ...: a segment takes its column from the first branch on the chain
  // whose history holds a commit at or before the chain's commit there;
  // a branch that never wrote the segment by then inherited it. Registry
  // entries are snapshotted under the leaf lock, histories consulted
  // outside it (each has its own internal lock).
  std::unordered_set<uint32_t> resolved;
  for (bool first = true; commit != kInvalidCommit; first = false) {
    BranchId branch = kInvalidBranch;
    std::vector<uint32_t> segs;
    CommitId base = kInvalidCommit;
    {
      std::lock_guard<std::mutex> commit_lock(commit_mu_);
      auto it = commit_branch_.find(commit);
      if (it == commit_branch_.end()) {
        return Status::NotFound("hybrid: unknown " +
                                std::string(first ? "" : "base ") +
                                "commit " + std::to_string(commit));
      }
      branch = it->second;
      if (auto segs_it = history_segs_.find(branch);
          segs_it != history_segs_.end()) {
        segs = segs_it->second;
      }
      if (auto base_it = inherits_.find(branch); base_it != inherits_.end()) {
        base = base_it->second;
      }
    }
    // A branch is created at a commit older than any of its own, so the
    // chain strictly descends; anything else is a corrupt registry.
    if (base != kInvalidCommit && base >= commit) {
      return Status::Corruption("hybrid: branch " + std::to_string(branch) +
                                " inherits from a commit not older than " +
                                std::to_string(commit));
    }
    for (uint32_t seg : segs) {
      if (resolved.count(seg) != 0) continue;
      DECIBEL_ASSIGN_OR_RETURN(CommitHistory * history,
                               HistoryFor(branch, seg));
      const std::optional<uint64_t> floor = history->FloorCommit(commit);
      if (!floor.has_value()) continue;  // inherited at this commit
      resolved.insert(seg);
      out->push_back(ColumnRef{seg, history, *floor});
    }
    commit = base;
  }
  std::sort(out->begin(), out->end(),
            [](const ColumnRef& a, const ColumnRef& b) { return a.seg < b.seg; });
  return Status::OK();
}

Status HybridEngine::CommitColumns(
    CommitId commit, std::vector<std::pair<uint32_t, Bitmap>>* out) {
  std::vector<ColumnRef> refs;
  DECIBEL_RETURN_NOT_OK(ResolveColumns(commit, &refs));
  for (const ColumnRef& ref : refs) {
    DECIBEL_ASSIGN_OR_RETURN(Bitmap bits, ref.history->Checkout(ref.seq));
    out->emplace_back(ref.seg, std::move(bits));
  }
  return Status::OK();
}

Status HybridEngine::Checkout(CommitId commit) {
  std::vector<std::pair<uint32_t, Bitmap>> columns;
  return CommitColumns(commit, &columns);
}

Status HybridEngine::RebuildPkIndex(BranchId b) {
  PkIndex& idx = pk_index_[b];
  idx.clear();
  for (uint32_t seg : SegmentsOf(b)) {
    const Bitmap* view = segments_[seg]->local.BranchView(b);
    if (view == nullptr) continue;
    BitmapScanner scanner(segments_[seg]->file.get(), &schema_, view);
    RecordRef rec;
    uint64_t pos;
    while (scanner.Next(&rec, &pos)) {
      idx[rec.pk()] = Loc{seg, pos};
    }
    DECIBEL_RETURN_NOT_OK(scanner.status());
  }
  return Status::OK();
}

// ----------------------------------------------------------------- mutation

Status HybridEngine::ApplyBatch(BranchId branch, const WriteBatch& batch) {
  // Registry shared (CreateBranch/Merge may not reshape segments_ or the
  // local indexes' column sets under us) + the branch's stripe. Updates
  // and deletes of records inherited from shared ancestor segments flip
  // bits only in *this branch's* column of those segments' local
  // bitmaps, so sibling writers never touch the same bitmap.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  std::lock_guard<std::mutex> stripe_lock(stripes_.ForBranch(branch));
  auto head_it = head_seg_.find(branch);
  if (head_it == head_seg_.end()) {
    return Status::NotFound("hybrid: unknown branch " +
                            std::to_string(branch));
  }
  Segment& head = *segments_[head_it->second];
  PkIndex& pks = pk_index_[branch];
  DECIBEL_RETURN_NOT_OK(ValidateBatchDeletes(
      batch, [&pks](int64_t pk) { return pks.count(pk) != 0; }));

  // One pass over the batch: the record payloads go to the head segment
  // in page-sized chunks, its local bitmap universe grows once, the pk
  // index is pre-sized, and the head segment is marked dirty once rather
  // than per record.
  uint64_t next_idx = 0;
  if (batch.num_appends() > 0) {
    DECIBEL_ASSIGN_OR_RETURN(
        next_idx,
        head.file->AppendBatch(batch.arena(), batch.num_appends()));
  }
  head.local.AppendTuples(batch.num_appends());
  pks.reserve(pks.size() + batch.num_appends());
  for (const WriteBatch::Op& op : batch.ops()) {
    if (op.kind == WriteBatch::OpKind::kDelete) {
      auto old = pks.find(op.pk);
      segments_[old->second.seg]->local.Set(old->second.idx, branch, false);
      MarkDirty(branch, old->second.seg);
      pks.erase(old);
      continue;
    }
    const uint64_t idx = next_idx++;
    auto [it, inserted] =
        pks.try_emplace(batch.RecordAt(op).pk(), Loc{head.id, idx});
    if (!inserted) {
      const Loc old = it->second;
      segments_[old.seg]->local.Set(old.idx, branch, false);
      if (old.seg != head.id) MarkDirty(branch, old.seg);
      it->second = Loc{head.id, idx};
    }
    head.local.Set(idx, branch, true);
  }
  if (batch.num_appends() > 0) MarkDirty(branch, head.id);
  return Status::OK();
}

// ------------------------------------------------------------------ queries

Result<std::vector<ScanPart>> HybridEngine::BuildScanParts(
    const ScanSpec& spec, uint64_t* segments_skipped) {
  // Live-branch views materialize their bitmap copies under the branch's
  // stripe lock, so a snapshot always lands on a batch boundary; every
  // part also captures its segment's file pointer so the cursor streams
  // without re-reading segments_.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  std::vector<ScanPart> parts;
  switch (spec.view) {
    case ScanView::kBranch: {
      if (head_seg_.count(spec.branch) == 0) {
        return Status::NotFound("hybrid: unknown branch " +
                                std::to_string(spec.branch));
      }
      // "Single branch scans check the branch-segment index to identify
      // the segments that need to be read" (§3.4); order is irrelevant.
      std::lock_guard<std::mutex> stripe_lock(
          stripes_.ForBranch(spec.branch));
      for (uint32_t seg : SegmentsOf(spec.branch)) {
        ScanPart part;
        part.file = segments_[seg]->file.get();
        part.unioned = segments_[seg]->local.MaterializeBranch(spec.branch);
        parts.push_back(std::move(part));
      }
      break;
    }
    case ScanView::kCommit: {
      std::vector<std::pair<uint32_t, Bitmap>> columns;
      DECIBEL_RETURN_NOT_OK(CommitColumns(spec.commit, &columns));
      for (auto& [seg, bits] : columns) {
        ScanPart part;
        part.file = segments_[seg]->file.get();
        part.unioned = std::move(bits);
        parts.push_back(std::move(part));
      }
      break;
    }
    case ScanView::kMulti: {
      // Segments relevant to any requested branch: a logical OR of rows
      // of the branch-segment bitmap (§3.4).
      for (BranchId b : spec.branches) {
        if (head_seg_.count(b) == 0) {
          return Status::NotFound("hybrid: unknown branch " +
                                  std::to_string(b));
        }
      }
      StripeLocks::MultiGuard stripe_locks(stripes_, spec.branches);
      Bitmap segs;
      for (BranchId b : spec.branches) {
        auto it = branch_segments_.find(b);
        if (it != branch_segments_.end()) segs.OrWith(it->second);
      }
      segs.ForEachSet([&](uint64_t seg) {
        ScanPart part;
        part.file = segments_[seg]->file.get();
        part.cols.resize(spec.branches.size());
        for (size_t i = 0; i < spec.branches.size(); ++i) {
          part.cols[i] =
              segments_[seg]->local.MaterializeBranch(spec.branches[i]);
          part.unioned.OrWith(part.cols[i]);
        }
        parts.push_back(std::move(part));
      });
      break;
    }
    default:
      return Status::InvalidArgument("hybrid: unsupported scan view");
  }
  // Whole-segment skipping off the file-level zone (§3.4's segment index
  // extended with statistics): a segment whose zone rules the predicate
  // out cannot contribute a matching row, whatever the bitmaps selected.
  // File zones only grow (they are supersets of any earlier snapshot the
  // bitmaps were built against), so the test is safe lock-free here.
  *segments_skipped +=
      DropUnmatchableParts(PreparedPredicate(spec.predicate, schema_), &parts);
  return parts;
}

Result<std::unique_ptr<ScanCursor>> HybridEngine::ParallelScan(
    std::vector<ScanPart> parts, uint64_t segments_skipped,
    const ScanSpec& spec, int threads) {
  // §3.4: the branch-segment bitmap "allows for parallelization of
  // segment scanning". Workers filter and project inside the scan, so
  // only matching rows are copied out of the pages; the cursor then
  // drains the materialized result. The whole filtered result set is
  // held in memory — the price of lock-free workers; callers scanning
  // huge low-selectivity views without a limit should prefer the
  // streaming sequential path (parallelism <= 1).
  struct PartResult {
    std::vector<std::string> rows;
    std::vector<std::vector<uint32_t>> annotations;
    ScanStats stats;
    Status status;
  };
  std::vector<PartResult> results(parts.size());
  const PreparedPredicate prepared(spec.predicate, schema_);
  const uint32_t row_bytes = ProjectedRowBytes(schema_, spec.projection);
  {
    ThreadPool pool(static_cast<size_t>(threads));
    for (size_t p = 0; p < parts.size(); ++p) {
      pool.Submit([&, p] {
        const ScanPart& part = parts[p];
        PartResult& result = results[p];
        BitmapScanner scanner(part.file, &schema_, &part.unioned);
        scanner.EnablePruning(&prepared, &result.stats);
        RecordRef rec;
        uint64_t idx;
        std::vector<uint32_t> present;
        while (scanner.Next(&rec, &idx)) {
          // Each worker can stop at the global limit: the merge below
          // takes at most spec.limit rows total, so copies past it in
          // any one part can never be emitted.
          if (spec.limit != 0 && result.rows.size() >= spec.limit) break;
          ++result.stats.rows_scanned;
          result.stats.bytes_scanned += row_bytes;
          if (!prepared.Matches(rec.data().data())) continue;
          result.rows.push_back(
              ProjectRecordCopy(schema_, rec.data(), spec.projection));
          if (!part.cols.empty()) {
            present.clear();
            for (uint32_t i = 0; i < part.cols.size(); ++i) {
              if (part.cols[i].Test(idx)) present.push_back(i);
            }
            result.annotations.push_back(present);
          }
        }
        result.status = scanner.status();
      });
    }
    pool.Wait();
  }
  auto cursor = std::make_unique<BufferedCursor>(&schema_, &scan_counters_);
  *cursor->mutable_branch_list() = spec.branches;
  ScanStats* stats = cursor->mutable_stats();
  stats->segments_skipped = segments_skipped;
  for (PartResult& result : results) {
    if (!result.status.ok()) {
      cursor->set_status(result.status);
      break;
    }
    stats->rows_scanned += result.stats.rows_scanned;
    stats->bytes_scanned += result.stats.bytes_scanned;
    stats->bytes_read += result.stats.bytes_read;
    stats->pages_skipped += result.stats.pages_skipped;
    for (size_t i = 0; i < result.rows.size(); ++i) {
      if (spec.limit != 0 && cursor->buffered() >= spec.limit) break;
      if (result.annotations.empty()) {
        cursor->AddOwnedRow(std::move(result.rows[i]));
      } else {
        cursor->AddAnnotatedRow(std::move(result.rows[i]),
                                std::move(result.annotations[i]));
      }
    }
  }
  return std::unique_ptr<ScanCursor>(std::move(cursor));
}

Result<std::unique_ptr<ScanCursor>> HybridEngine::NewScan(
    const ScanSpec& spec) {
  DECIBEL_RETURN_NOT_OK(ValidateScanSpec(spec, schema_));
  if (spec.view == ScanView::kDiff) {
    return MakeDiffScanCursor(
        schema_, spec, &scan_counters_, [&](const DiffRowSink& emit) {
          return DiffRows(spec.branch, spec.diff_base, emit);
        });
  }
  uint64_t segments_skipped = 0;
  DECIBEL_ASSIGN_OR_RETURN(std::vector<ScanPart> parts,
                           BuildScanParts(spec, &segments_skipped));
  const int threads =
      spec.parallelism != 0 ? spec.parallelism : options_.scan_threads;
  if (threads > 1 && parts.size() > 1) {
    return ParallelScan(std::move(parts), segments_skipped, spec, threads);
  }
  std::vector<BranchId> branch_list =
      spec.view == ScanView::kMulti ? spec.branches : std::vector<BranchId>();
  return std::unique_ptr<ScanCursor>(
      new PartsCursor(&schema_, &scan_counters_, std::move(parts),
                      segments_skipped, std::move(branch_list), spec));
}

Result<Record> HybridEngine::Get(BranchId branch, int64_t pk) {
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  Loc loc;
  {
    // The pk index is per-branch state guarded by the branch's stripe.
    std::lock_guard<std::mutex> stripe_lock(stripes_.ForBranch(branch));
    auto branch_it = pk_index_.find(branch);
    if (branch_it == pk_index_.end()) {
      return Status::NotFound("hybrid: unknown branch " +
                              std::to_string(branch));
    }
    auto rec_it = branch_it->second.find(pk);
    if (rec_it == branch_it->second.end()) {
      return Status::NotFound("hybrid: no record with pk " +
                              std::to_string(pk));
    }
    loc = rec_it->second;
  }
  std::string buf;
  DECIBEL_RETURN_NOT_OK(segments_[loc.seg]->file->Get(loc.idx, &buf));
  return Record(&schema_, Slice(buf));
}

Status HybridEngine::DiffRows(BranchId a, BranchId b,
                              const DiffRowSink& emit) {
  // Materialize both sides' per-segment deltas under the two branches'
  // stripes (ascending order via MultiGuard), then scan the snapshot
  // with the stripes released.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  for (BranchId x : {a, b}) {
    if (head_seg_.count(x) == 0) {
      return Status::NotFound("hybrid: unknown branch " + std::to_string(x));
    }
  }
  struct SegDiff {
    HeapFile* file = nullptr;
    Bitmap only_a;
    Bitmap both;  // only_a | only_b
  };
  std::vector<SegDiff> seg_diffs;
  {
    StripeLocks::MultiGuard stripe_locks(stripes_, {a, b});
    Bitmap segs;
    for (BranchId x : {a, b}) {
      auto it = branch_segments_.find(x);
      if (it != branch_segments_.end()) segs.OrWith(it->second);
    }
    segs.ForEachSet([&](uint64_t seg) {
      SegDiff d;
      d.file = segments_[seg]->file.get();
      const Bitmap la = segments_[seg]->local.MaterializeBranch(a);
      const Bitmap lb = segments_[seg]->local.MaterializeBranch(b);
      d.only_a = Bitmap::AndNot(la, lb);
      d.both = Bitmap::Xor(la, lb);
      seg_diffs.push_back(std::move(d));
    });
  }

  // One walk over every segment's changed rows; DiffEmitter holds a's
  // rows back until the walk has seen every key b changed.
  DiffEmitter emitter(&schema_);
  for (const SegDiff& d : seg_diffs) {
    BitmapScanner scanner(d.file, &schema_, &d.both);
    RecordRef rec;
    uint64_t idx;
    while (scanner.Next(&rec, &idx)) emitter.Add(rec, d.only_a.Test(idx));
    DECIBEL_RETURN_NOT_OK(scanner.status());
  }
  emitter.Finish(emit);
  return Status::OK();
}

// -------------------------------------------------------------------- merge

Status HybridEngine::MergeWalk(CommitId left, CommitId right, CommitId base,
                               const MergeWalkCallback& cb,
                               MergeWalkStats* stats) {
  // The tuple-first mask algebra run per segment (§3.4): for each segment
  // any of the three commits has columns in, (L⊕B)|(R⊕B) over the local
  // bitmaps covers every live location of every changed key — a commit
  // carries one live location per key *globally* (the pk index invariant),
  // so a key with a location outside every segment's mask has the same
  // location in all three commits and never changed. Columns come from
  // the (branch, segment) commit histories; the history files and record
  // pages are internally synchronized and commit snapshots are immutable,
  // so the walk holds the registry shared only to address segments_.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  const uint32_t rs = schema_.record_size();

  // Each side's columns are first only located. A segment whose three
  // columns are one stored bitmap (the child never wrote it and the
  // parent has not rewritten it since the fork — most of a long
  // ancestry) is skipped without replaying any history.
  std::vector<ColumnRef> refs[3];
  DECIBEL_RETURN_NOT_OK(ResolveColumns(left, &refs[0]));
  DECIBEL_RETURN_NOT_OK(ResolveColumns(right, &refs[1]));
  DECIBEL_RETURN_NOT_OK(ResolveColumns(base, &refs[2]));
  std::map<uint32_t, std::array<const ColumnRef*, 3>> by_seg;
  for (int side = 0; side < 3; ++side) {
    for (const ColumnRef& ref : refs[side]) by_seg[ref.seg][side] = &ref;
  }

  constexpr uint64_t kAbsentSeg = ~uint64_t{0};
  struct Positions {
    Loc l{0, 0}, r{0, 0}, b{0, 0};
    uint64_t l_seg = kAbsentSeg, r_seg = kAbsentSeg, b_seg = kAbsentSeg;
  };
  std::map<int64_t, Positions> keys;

  for (const auto& [seg, sides] : by_seg) {
    auto same = [](const ColumnRef* a, const ColumnRef* b) {
      return a != nullptr && b != nullptr && *a == *b;
    };
    if (same(sides[0], sides[2]) && same(sides[1], sides[2])) continue;
    // Load each distinct column once; an absent side is empty.
    Bitmap bits[3];
    for (int side = 0; side < 3; ++side) {
      if (sides[side] == nullptr) continue;
      int twin = 0;
      while (twin < side && !same(sides[twin], sides[side])) ++twin;
      if (twin < side) {
        bits[side] = bits[twin];
        continue;
      }
      DECIBEL_ASSIGN_OR_RETURN(
          bits[side], sides[side]->history->Checkout(sides[side]->seq));
    }
    const Bitmap& bits_l = bits[0];
    const Bitmap& bits_r = bits[1];
    const Bitmap& bits_b = bits[2];
    const Bitmap mask =
        Bitmap::Or(Bitmap::Xor(bits_l, bits_b), Bitmap::Xor(bits_r, bits_b));
    if (!mask.Any()) continue;  // segment untouched between the commits

    BitmapScanner scanner(segments_[seg]->file.get(), &schema_, &mask);
    RecordRef rec;
    uint64_t idx;
    while (scanner.Next(&rec, &idx)) {
      Positions& p = keys[rec.pk()];
      if (bits_l.Test(idx)) {
        p.l = Loc{seg, idx};
        p.l_seg = seg;
      }
      if (bits_r.Test(idx)) {
        p.r = Loc{seg, idx};
        p.r_seg = seg;
      }
      if (bits_b.Test(idx)) {
        p.b = Loc{seg, idx};
        p.b_seg = seg;
      }
      stats->bytes_processed += rs;
    }
    DECIBEL_RETURN_NOT_OK(scanner.status());
  }

  auto fetch = [&](Loc loc, std::string* buf) {
    stats->bytes_processed += rs;
    return segments_[loc.seg]->file->Get(loc.idx, buf);
  };
  auto same = [](uint64_t a_seg, Loc a, uint64_t b_seg, Loc b) {
    return a_seg != kAbsentSeg && b_seg != kAbsentSeg && a.seg == b.seg &&
           a.idx == b.idx;
  };
  std::string buf_l, buf_r, buf_b;
  for (const auto& [pk, pos] : keys) {
    MergeWalkItem item;
    item.pk = pk;
    std::optional<RecordRef> ref_l, ref_r, ref_b;
    if (pos.l_seg != kAbsentSeg) {
      DECIBEL_RETURN_NOT_OK(fetch(pos.l, &buf_l));
      ref_l.emplace(&schema_, Slice(buf_l));
      item.left = &*ref_l;
    }
    if (pos.r_seg != kAbsentSeg) {
      if (same(pos.r_seg, pos.r, pos.l_seg, pos.l)) {
        item.right = item.left;
      } else {
        DECIBEL_RETURN_NOT_OK(fetch(pos.r, &buf_r));
        ref_r.emplace(&schema_, Slice(buf_r));
        item.right = &*ref_r;
      }
    }
    if (pos.b_seg != kAbsentSeg) {
      if (same(pos.b_seg, pos.b, pos.l_seg, pos.l)) {
        item.base = item.left;
      } else if (same(pos.b_seg, pos.b, pos.r_seg, pos.r)) {
        item.base = item.right;
      } else {
        DECIBEL_RETURN_NOT_OK(fetch(pos.b, &buf_b));
        ref_b.emplace(&schema_, Slice(buf_b));
        item.base = &*ref_b;
      }
    }
    ++stats->keys_emitted;
    DECIBEL_RETURN_NOT_OK(cb(item));
  }
  return Status::OK();
}

// -------------------------------------------------------------------- stats

EngineStats HybridEngine::Stats() const {
  EngineStats stats;
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  {
    // Every stripe: the walk reads all branches' columns and pk indexes.
    StripeLocks::AllGuard stripe_locks(stripes_);
    for (const auto& segment : segments_) {
      stats.data_bytes += segment->file->SizeBytes();
      stats.num_records += segment->file->num_records();
      stats.index_memory_bytes += segment->local.MemoryBytes();
    }
    for (const auto& [branch, row] : branch_segments_) {
      stats.index_memory_bytes += row.MemoryBytes();
    }
    for (const auto& [branch, pks] : pk_index_) {
      stats.index_memory_bytes += HashTableMemoryBytes(pks);
    }
  }
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    for (const auto& [key, history] : histories_) {
      stats.commit_store_bytes += history->SizeBytes();
    }
  }
  stats.num_segments = segments_.size();
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

}  // namespace decibel
