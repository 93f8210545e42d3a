#include "engine/version_first.h"

#include <algorithm>
#include <map>

#include "common/coding.h"
#include "engine/bitmap_scan.h"
#include "engine/scan_util.h"

namespace decibel {

namespace {

/// Per-page scan decision for a planned branch scan (BranchScanCursor's
/// skip planner). kScanExactPage marks a pk-disjoint page: its keys occur
/// nowhere else in the scan, so proving it match-free (compressed-strip
/// count) skips it without breaking shadowing.
enum PageMode : uint8_t {
  kScanPage = 0,
  kScanExactPage = 1,
  kSkipPage = 2,
};

/// Reads one segment's records [0, bound) newest-to-oldest, pinning one
/// page at a time.
class ReverseSegmentReader {
 public:
  ReverseSegmentReader(HeapFile* file, const Schema* schema, uint64_t bound)
      : file_(file),
        schema_(schema),
        next_(std::min(bound, file->num_records())) {}

  /// Turns on page skipping and scan accounting: \p modes maps page
  /// number to PageMode (pages past the vector's end scan normally),
  /// kScanExactPage pages pin through the compressed-count fast path and
  /// a proven zero-match page is stepped over whole. \p stats receives
  /// pages_skipped and bytes_read. All pointers must outlive the reader
  /// and may be null.
  void EnablePruning(const std::vector<uint8_t>* modes,
                     const PreparedPredicate* predicate, ScanStats* stats) {
    modes_ = modes;
    predicate_ = predicate;
    stats_ = stats;
  }

  /// Yields the next (older) record; false at the start of the segment or
  /// on error.
  bool Prev(RecordRef* out, uint64_t* index) {
    if (!status_.ok()) return false;
    const uint64_t rpp = file_->records_per_page();
    while (next_ != 0) {
      const uint64_t idx = next_ - 1;
      const uint64_t page_no = idx / rpp;
      if (page_no != pinned_page_no_) {
        const uint8_t mode = modes_ != nullptr && page_no < modes_->size()
                                 ? (*modes_)[page_no]
                                 : static_cast<uint8_t>(kScanPage);
        if (mode == kSkipPage) {
          if (stats_ != nullptr) ++stats_->pages_skipped;
          next_ = page_no * rpp;  // step below the page in one move
          continue;
        }
        bool no_matches = false;
        auto page = file_->PinPageCounted(
            page_no, mode == kScanExactPage ? predicate_ : nullptr,
            &no_matches);
        if (!page.ok()) {
          status_ = page.status();
          return false;
        }
        if (stats_ != nullptr) stats_->bytes_read += page.value().io_bytes;
        if (no_matches) {
          if (stats_ != nullptr) ++stats_->pages_skipped;
          next_ = page_no * rpp;
          continue;
        }
        page_ = std::move(page).MoveValueUnsafe();
        pinned_page_no_ = page_no;
      }
      next_ = idx;
      const uint64_t slot = idx % rpp;
      *out = RecordRef(schema_,
                       Slice(page_.payload + slot * file_->record_size(),
                             file_->record_size()));
      if (index != nullptr) *index = idx;
      return true;
    }
    return false;
  }

  const Status& status() const { return status_; }

 private:
  HeapFile* file_;
  const Schema* schema_;
  const std::vector<uint8_t>* modes_ = nullptr;
  const PreparedPredicate* predicate_ = nullptr;
  ScanStats* stats_ = nullptr;
  uint64_t next_;
  HeapFile::PinnedPage page_;
  uint64_t pinned_page_no_ = UINT64_MAX;
  Status status_;
};

}  // namespace

// ------------------------------------------------------------ construction

Result<std::unique_ptr<VersionFirstEngine>> VersionFirstEngine::Make(
    const Schema& schema, const EngineOptions& options) {
  std::unique_ptr<VersionFirstEngine> engine(
      new VersionFirstEngine(schema, options));
  DECIBEL_RETURN_NOT_OK(CreateDir(options.directory));
  if (!options.checkpoint_tag.empty()) {
    DECIBEL_RETURN_NOT_OK(engine->LoadExisting());
  } else {
    DECIBEL_RETURN_NOT_OK(engine->InitFresh());
  }
  return engine;
}

std::string VersionFirstEngine::MetaPath(const std::string& tag) const {
  return JoinPath(options_.directory, "engine.meta." + tag);
}

std::string VersionFirstEngine::SegmentPath(uint32_t seg) const {
  return JoinPath(options_.directory, "seg_" + std::to_string(seg) + ".dbhf");
}

Result<uint32_t> VersionFirstEngine::NewSegment(
    BranchId owner, std::vector<ParentLink> parents) {
  auto segment = std::make_unique<Segment>();
  segment->id = static_cast<uint32_t>(segments_.size());
  segment->owner = owner;
  segment->parents = std::move(parents);
  HeapFile::Options hopts;
  hopts.page_size = options_.page_size;
  hopts.schema = &schema_;
  hopts.compress_pages = options_.compress_pages;
  DECIBEL_ASSIGN_OR_RETURN(
      segment->file, HeapFile::Create(SegmentPath(segment->id),
                                      schema_.record_size(), hopts, &pool_));
  segments_.push_back(std::move(segment));
  return segments_.back()->id;
}

Status VersionFirstEngine::InitFresh() {
  DECIBEL_ASSIGN_OR_RETURN(uint32_t seg, NewSegment(kMasterBranch, {}));
  head_seg_[kMasterBranch] = seg;
  pk_index_.try_emplace(kMasterBranch);
  return Status::OK();
}

Status VersionFirstEngine::LoadExisting() {
  const std::string& tag = options_.checkpoint_tag;
  DECIBEL_ASSIGN_OR_RETURN(std::string meta, ReadFileToString(MetaPath(tag)));
  Slice input(meta);
  DECIBEL_RETURN_NOT_OK(CheckEngineMetaHeader(&input, "version-first"));
  Slice schema_blob;
  if (!GetLengthPrefixed(&input, &schema_blob)) {
    return Status::Corruption("version-first: truncated meta");
  }
  Slice schema_slice = schema_blob;
  DECIBEL_ASSIGN_OR_RETURN(Schema stored, Schema::DecodeFrom(&schema_slice));
  if (!(stored == schema_)) {
    return Status::InvalidArgument(
        "version-first: schema mismatch on reopen");
  }
  uint64_t num_segments;
  if (!GetVarint64(&input, &num_segments)) {
    return Status::Corruption("version-first: truncated meta");
  }
  HeapFile::Options hopts;
  hopts.schema = &schema_;
  hopts.compress_pages = options_.compress_pages;
  for (uint64_t i = 0; i < num_segments; ++i) {
    auto segment = std::make_unique<Segment>();
    uint64_t num_parents;
    if (!GetVarint32(&input, &segment->id) ||
        !GetVarint32(&input, &segment->owner) ||
        !GetVarint64(&input, &num_parents)) {
      return Status::Corruption("version-first: truncated segment meta");
    }
    if (segment->id != segments_.size()) {
      return Status::Corruption("version-first: segment ids not dense");
    }
    for (uint64_t p = 0; p < num_parents; ++p) {
      ParentLink link;
      if (!GetVarint32(&input, &link.seg) ||
          !GetVarint64(&input, &link.bound)) {
        return Status::Corruption("version-first: truncated parent link");
      }
      if (link.seg >= segment->id) {
        return Status::Corruption(
            "version-first: parent link to non-ancestor segment");
      }
      segment->parents.push_back(link);
    }
    HeapFile::CheckpointState cs;
    uint32_t tail_crc;
    if (!GetVarint64(&input, &cs.num_records) ||
        !GetVarint32(&input, &tail_crc)) {
      return Status::Corruption("version-first: truncated segment state");
    }
    cs.tail_crc = tail_crc;
    Slice stats_blob;
    if (!GetLengthPrefixed(&input, &stats_blob)) {
      return Status::Corruption("version-first: truncated segment stats blob");
    }
    // Branch heads resolve to file->num_records(), so post-checkpoint
    // appends must be physically discarded — roll the segment back to its
    // checkpointed record count before anything reads it.
    DECIBEL_ASSIGN_OR_RETURN(
        segment->file,
        HeapFile::OpenAtCheckpoint(SegmentPath(segment->id), hopts, &pool_,
                                   cs));
    DECIBEL_RETURN_NOT_OK(segment->file->LoadStats(stats_blob));
    DECIBEL_RETURN_NOT_OK(segment->file->EnsureStats());
    segments_.push_back(std::move(segment));
  }
  uint64_t num_heads, num_commits;
  if (!GetVarint64(&input, &num_heads)) {
    return Status::Corruption("version-first: truncated head map");
  }
  for (uint64_t i = 0; i < num_heads; ++i) {
    uint32_t branch, seg;
    if (!GetVarint32(&input, &branch) || !GetVarint32(&input, &seg)) {
      return Status::Corruption("version-first: truncated head entry");
    }
    if (seg >= segments_.size()) {
      return Status::Corruption("version-first: head points past segments");
    }
    head_seg_[branch] = seg;
  }
  if (!GetVarint64(&input, &num_commits)) {
    return Status::Corruption("version-first: truncated commit map");
  }
  for (uint64_t i = 0; i < num_commits; ++i) {
    uint64_t commit;
    Root root;
    if (!GetVarint64(&input, &commit) || !GetVarint32(&input, &root.seg) ||
        !GetVarint64(&input, &root.bound)) {
      return Status::Corruption("version-first: truncated commit entry");
    }
    if (root.seg >= segments_.size()) {
      return Status::Corruption(
          "version-first: commit points past segments");
    }
    commits_[commit] = root;
  }
  // The pk indexes are memory-only: one multi-root winner-table pass over
  // the union ancestry rebuilds every branch's map at once (shared
  // ancestor segments are read once, not once per branch).
  std::vector<BranchId> branch_ids;
  std::vector<Root> roots;
  branch_ids.reserve(head_seg_.size());
  roots.reserve(head_seg_.size());
  for (const auto& [branch, seg] : head_seg_) {
    branch_ids.push_back(branch);
    roots.push_back(Root{seg, segments_[seg]->file->num_records()});
  }
  std::vector<WinnerTable> tables;
  DECIBEL_RETURN_NOT_OK(BuildWinnerTables(roots, &tables, nullptr));
  for (size_t i = 0; i < branch_ids.size(); ++i) {
    PkIndex& idx = pk_index_[branch_ids[i]];
    idx.reserve(tables[i].size());
    for (const auto& [pk, winner] : tables[i]) {
      if (winner.tombstone) continue;
      idx[pk] = Loc{winner.seg, winner.idx};
    }
  }
  return Status::OK();
}

std::string VersionFirstEngine::EncodeMeta() {
  std::string meta;
  PutEngineMetaHeader(&meta);
  std::string schema_blob;
  schema_.EncodeTo(&schema_blob);
  PutLengthPrefixed(&meta, schema_blob);
  PutVarint64(&meta, segments_.size());
  for (const auto& segment : segments_) {
    PutVarint32(&meta, segment->id);
    PutVarint32(&meta, segment->owner);
    PutVarint64(&meta, segment->parents.size());
    for (const ParentLink& link : segment->parents) {
      PutVarint32(&meta, link.seg);
      PutVarint64(&meta, link.bound);
    }
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
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    PutVarint64(&meta, commits_.size());
    for (const auto& [commit, root] : commits_) {
      PutVarint64(&meta, commit);
      PutVarint32(&meta, root.seg);
      PutVarint64(&meta, root.bound);
    }
  }
  return meta;
}

Status VersionFirstEngine::ReleaseBranch(BranchId branch) {
  // A retired branch's segments never append again; close their
  // descriptors. The segments stay in the registry — descendants keep
  // reading inherited records through lazily-reopened handles.
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  for (auto& segment : segments_) {
    if (segment->owner != branch) continue;
    DECIBEL_RETURN_NOT_OK(segment->file->ReleaseFileHandles());
  }
  return Status::OK();
}

Status VersionFirstEngine::Checkpoint(const std::string& tag, bool sync) {
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  for (auto& segment : segments_) {
    DECIBEL_RETURN_NOT_OK(sync ? segment->file->Sync()
                               : segment->file->Flush());
  }
  return AtomicWriteFile(MetaPath(tag), EncodeMeta(), sync);
}

Status VersionFirstEngine::RemoveCheckpoint(const std::string& tag) {
  return RemoveFile(MetaPath(tag));
}

// --------------------------------------------------------- version control

Result<VersionFirstEngine::Root> VersionFirstEngine::RootForBranch(
    BranchId branch) const {
  auto it = head_seg_.find(branch);
  if (it == head_seg_.end()) {
    return Status::NotFound("version-first: unknown branch " +
                            std::to_string(branch));
  }
  return Root{it->second, segments_[it->second]->file->num_records()};
}

Result<VersionFirstEngine::Root> VersionFirstEngine::RootForCommit(
    CommitId commit) const {
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  auto it = commits_.find(commit);
  if (it == commits_.end()) {
    return Status::NotFound("version-first: unknown commit " +
                            std::to_string(commit));
  }
  return it->second;
}

Status VersionFirstEngine::CreateBranch(BranchId child, BranchId parent,
                                        CommitId base_commit, bool at_head) {
  // "a new child segment file is created that notes the parent file and
  // the offset of this branch point" (§3.3). The parent keeps appending
  // to its own segment; records after the branch point are isolated.
  // Growing segments_/head_seg_ changes the registry shape.
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  Root base{0, 0};
  if (at_head) {
    DECIBEL_ASSIGN_OR_RETURN(base, RootForBranch(parent));
  } else {
    DECIBEL_ASSIGN_OR_RETURN(base, RootForCommit(base_commit));
  }
  DECIBEL_ASSIGN_OR_RETURN(
      uint32_t seg, NewSegment(child, {ParentLink{base.seg, base.bound}}));
  head_seg_[child] = seg;
  if (at_head) {
    // The parent's pk index IS the child's starting state (both see the
    // same records up to the branch point, and the parent's map is
    // complete at its head).
    pk_index_[child] = pk_index_[parent];
    return Status::OK();
  }
  return RebuildPkIndex(child, base);
}

Status VersionFirstEngine::RebuildPkIndex(BranchId branch, const Root& root) {
  std::vector<WinnerTable> tables;
  DECIBEL_RETURN_NOT_OK(BuildWinnerTables({root}, &tables, nullptr));
  PkIndex& idx = pk_index_[branch];
  idx.clear();
  idx.reserve(tables[0].size());
  for (const auto& [pk, winner] : tables[0]) {
    if (winner.tombstone) continue;
    idx[pk] = Loc{winner.seg, winner.idx};
  }
  return Status::OK();
}

Status VersionFirstEngine::Commit(BranchId branch, CommitId commit_id) {
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  // The stripe pins the head segment's record count while we capture it.
  std::lock_guard<std::mutex> stripe_lock(stripes_.ForBranch(branch));
  return CommitImpl(branch, commit_id);
}

Status VersionFirstEngine::CommitImpl(BranchId branch, CommitId commit_id) {
  // "version-first supports commits by mapping a commit ID to the byte
  // offset of the latest record active in the committing branch's segment
  // file" (§3.3).
  DECIBEL_ASSIGN_OR_RETURN(Root root, RootForBranch(branch));
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  commits_[commit_id] = root;
  return Status::OK();
}

Status VersionFirstEngine::Checkout(CommitId commit) {
  // A checkout only needs the (segment, offset) pair — near-free, which is
  // why Table 2 has no version-first rows.
  return RootForCommit(commit).status();
}

// ----------------------------------------------------------------- mutation

Status VersionFirstEngine::ApplyBatch(BranchId branch,
                                      const WriteBatch& batch) {
  // Registry shared (CreateBranch/Merge may not reshape segments_ under
  // us) + the branch's stripe (one writer per head-segment tail). Batches
  // on branches mapping to different stripes run fully in parallel.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  std::lock_guard<std::mutex> stripe_lock(stripes_.ForBranch(branch));
  auto it = head_seg_.find(branch);
  if (it == head_seg_.end()) {
    return Status::NotFound("version-first: unknown branch " +
                            std::to_string(branch));
  }
  // Every op is an append to the branch's head segment: "Updates are
  // performed by inserting a new copy of the tuple with the same primary
  // key; branch scans will ignore the earlier copy" and "deletes require
  // a tombstone" (§3.3). A delete-free batch (the bulk-load shape) is
  // one chunked heap append of the whole staged arena. The branch's pk
  // index tracks the newest location per key; deletes erase blindly,
  // preserving the layout's blind-tombstone semantics.
  const uint32_t head = it->second;
  HeapFile* file = segments_[head]->file.get();
  PkIndex& pks = pk_index_[branch];
  pks.reserve(pks.size() + batch.num_appends());
  if (batch.num_appends() == batch.size()) {
    DECIBEL_ASSIGN_OR_RETURN(
        uint64_t first, file->AppendBatch(batch.arena(), batch.num_appends()));
    uint64_t i = 0;
    for (const WriteBatch::Op& op : batch.ops()) {
      pks[batch.RecordAt(op).pk()] = Loc{head, first + i};
      ++i;
    }
    return Status::OK();
  }
  for (const WriteBatch::Op& op : batch.ops()) {
    if (op.kind == WriteBatch::OpKind::kDelete) {
      const Record tombstone = MakeTombstone(&schema_, op.pk);
      DECIBEL_RETURN_NOT_OK(file->Append(tombstone.data()).status());
      pks.erase(op.pk);
    } else {
      DECIBEL_ASSIGN_OR_RETURN(uint64_t idx,
                               file->Append(batch.RecordAt(op).data()));
      pks[batch.RecordAt(op).pk()] = Loc{head, idx};
    }
  }
  return Status::OK();
}

// --------------------------------------------------------------- scan order

std::vector<VersionFirstEngine::ScanStep> VersionFirstEngine::ComputeScanOrder(
    const Root& root) const {
  // Collect the ancestry sub-DAG with per-segment visibility bounds
  // (a segment reachable through several paths is visible up to the widest
  // bound) and a lexicographic priority key derived from parent order.
  struct Node {
    uint64_t bound = 0;
    std::vector<uint32_t> priority;  // lexicographically smallest path
    bool has_priority = false;
    std::vector<uint32_t> children;  // children within the sub-DAG
  };
  std::map<uint32_t, Node> nodes;

  // BFS from the root, propagating bounds and priority keys. Priority keys
  // only shrink (lexicographically), bounds only grow, so iterate until
  // fixpoint; ancestries are small (#segments ~ #branches + #merges).
  std::vector<uint32_t> work{root.seg};
  nodes[root.seg].bound = std::min(
      root.bound, segments_[root.seg]->file->num_records());
  nodes[root.seg].has_priority = true;
  while (!work.empty()) {
    const uint32_t cur = work.back();
    work.pop_back();
    const Node& cur_node = nodes[cur];
    const std::vector<uint32_t> cur_priority = cur_node.priority;
    for (uint32_t i = 0; i < segments_[cur]->parents.size(); ++i) {
      const ParentLink& link = segments_[cur]->parents[i];
      Node& parent = nodes[link.seg];
      bool changed = false;
      if (link.bound > parent.bound) {
        parent.bound = link.bound;
        changed = true;
      }
      std::vector<uint32_t> candidate = cur_priority;
      candidate.push_back(i);
      if (!parent.has_priority || candidate < parent.priority) {
        parent.priority = std::move(candidate);
        parent.has_priority = true;
        changed = true;
      }
      if (std::find(parent.children.begin(), parent.children.end(), cur) ==
          parent.children.end()) {
        parent.children.push_back(cur);
      }
      if (changed) work.push_back(link.seg);
    }
  }

  // Kahn's algorithm, children before parents; among ready segments the
  // one with the smallest priority key goes first (this yields the
  // "D - B - C - A" style orders of §3.3).
  std::map<uint32_t, size_t> pending;  // seg -> unscanned children count
  for (auto& [seg, node] : nodes) pending[seg] = 0;
  for (auto& [seg, node] : nodes) {
    for (uint32_t i = 0; i < segments_[seg]->parents.size(); ++i) {
      const uint32_t p = segments_[seg]->parents[i].seg;
      if (nodes.count(p) != 0) ++pending[p];
    }
  }

  std::vector<ScanStep> order;
  order.reserve(nodes.size());
  std::vector<uint32_t> ready;
  for (auto& [seg, node] : nodes) {
    if (pending[seg] == 0) ready.push_back(seg);
  }
  while (!ready.empty()) {
    auto best = std::min_element(
        ready.begin(), ready.end(), [&](uint32_t a, uint32_t b) {
          return nodes[a].priority < nodes[b].priority;
        });
    const uint32_t seg = *best;
    ready.erase(best);
    order.push_back(ScanStep{seg, nodes[seg].bound});
    for (uint32_t i = 0; i < segments_[seg]->parents.size(); ++i) {
      const uint32_t p = segments_[seg]->parents[i].seg;
      auto it = pending.find(p);
      if (it != pending.end() && --it->second == 0) ready.push_back(p);
    }
  }
  return order;
}

// ------------------------------------------------------------ branch scans

/// Streaming single-version scan: walk the scan order newest-to-oldest,
/// suppressing keys already seen ("Decibel uses an in-memory set to track
/// emitted tuples", §3.3). The pushed-down predicate is evaluated inside
/// the segment walk, after version resolution — an old version of a key
/// must still shadow, even when the newest version fails the filter — so
/// a row failing the predicate costs one raw-bytes comparison and never
/// surfaces through the cursor boundary.
///
/// The scan order is captured as (file pointer, bound) pairs at open, so
/// Next never reads the engine's registry: the cursor streams its
/// snapshot while other branches append, create branches, or merge.
class VersionFirstEngine::BranchScanCursor : public ScanCursor {
 public:
  /// One step of the captured scan order.
  struct FileStep {
    HeapFile* file = nullptr;
    uint64_t bound = 0;
    std::vector<uint8_t> modes;  ///< per-page PageMode from PlanSkips
    bool skip_all = false;       ///< every page of the step is skippable
  };

  BranchScanCursor(const VersionFirstEngine* engine,
                   std::vector<FileStep> order, const ScanSpec& spec)
      : engine_(engine),
        order_(std::move(order)),
        prepared_(spec.predicate, engine->schema_),
        limit_(spec.limit),
        row_bytes_(ProjectedRowBytes(engine->schema_, spec.projection)) {
    if (!prepared_.empty()) PlanSkips();
  }
  ~BranchScanCursor() override { engine_->scan_counters_.Add(stats_); }

  bool Next(ScanRow* out) override {
    if (limit_ != 0 && stats_.rows_emitted >= limit_) return false;
    for (;;) {
      if (!reader_.has_value()) {
        while (step_ < order_.size() && order_[step_].skip_all) {
          ++stats_.segments_skipped;
          ++step_;
        }
        if (step_ >= order_.size()) return false;
        const FileStep& step = order_[step_];
        reader_.emplace(step.file, &engine_->schema_, step.bound);
        reader_->EnablePruning(&step.modes, &prepared_, &stats_);
      }
      RecordRef rec;
      if (!reader_->Prev(&rec, nullptr)) {
        if (!reader_->status().ok()) {
          status_ = reader_->status();
          return false;
        }
        reader_.reset();
        ++step_;
        continue;
      }
      if (!seen_.insert(rec.pk()).second) continue;
      if (rec.tombstone()) continue;
      ++stats_.rows_scanned;
      stats_.bytes_scanned += row_bytes_;
      if (!prepared_.Matches(rec.data().data())) continue;
      out->record = rec;
      out->branches = nullptr;
      ++stats_.rows_emitted;
      return true;
    }
  }

  const Status& status() const override { return status_; }
  const ScanStats& stats() const override { return stats_; }

 private:
  /// Plans page skipping against a zone-map snapshot taken at open.
  ///
  /// Version-first resolves versions by scan order — a record (live OR
  /// tombstone, matching or not) shadows every older version of its key —
  /// so a page whose zone fails the predicate still cannot be skipped
  /// blindly: dropping it would un-suppress older versions of its keys.
  /// A page is skippable iff BOTH hold:
  ///   (a) its zone rules out the predicate (no emittable row), and
  ///   (b) its pk range is disjoint from every other scan unit's, so its
  ///       keys have no other versions anywhere in this scan.
  /// Units are the sealed pages overlapping each step's bound plus one
  /// unit for the step's tail span; disjointness is a sort-by-min-pk +
  /// prefix-max sweep over all units of all steps. Zone pk ranges are
  /// supersets of the visible records (bound-partial pages, tombstone
  /// keys included), which only makes the test more conservative.
  /// Disjoint pages that DO pass the zone test run in kScanExactPage
  /// mode: the compressed-strip count may still prove them match-free.
  void PlanSkips() {
    struct Unit {
      size_t step = 0;
      uint64_t first_page = 0;
      uint64_t last_page = 0;
      int64_t min_pk = 0;
      int64_t max_pk = 0;
      bool may_match = true;
    };
    std::vector<Unit> units;
    for (size_t s = 0; s < order_.size(); ++s) {
      FileStep& step = order_[s];
      if (step.bound == 0 || !step.file->stats_enabled()) continue;
      const uint64_t rpp = step.file->records_per_page();
      const uint64_t num_pages = (step.bound + rpp - 1) / rpp;
      std::vector<HeapFile::PageStats> pages;
      columnar::ZoneMap tail_zone;
      step.file->SnapshotPageStats(&pages, &tail_zone);
      step.modes.assign(num_pages, kScanPage);
      const uint64_t sealed = std::min<uint64_t>(pages.size(), num_pages);
      for (uint64_t p = 0; p < sealed; ++p) {
        const columnar::ZoneMap& zone = pages[p].zone;
        if (zone.rows() == 0) continue;  // defensive: sealed pages are full
        units.push_back(Unit{s, p, p, zone.min_pk(), zone.max_pk(),
                             prepared_.MayMatch(zone)});
      }
      if (num_pages > sealed && tail_zone.rows() != 0) {
        units.push_back(Unit{s, sealed, num_pages - 1, tail_zone.min_pk(),
                             tail_zone.max_pk(),
                             prepared_.MayMatch(tail_zone)});
      }
    }
    if (units.empty()) return;
    std::sort(units.begin(), units.end(),
              [](const Unit& a, const Unit& b) { return a.min_pk < b.min_pk; });
    int64_t prefix_max = 0;
    for (size_t i = 0; i < units.size(); ++i) {
      const Unit& u = units[i];
      const bool disjoint =
          (i == 0 || prefix_max < u.min_pk) &&
          (i + 1 == units.size() || u.max_pk < units[i + 1].min_pk);
      if (disjoint) {
        const uint8_t mode = u.may_match ? kScanExactPage : kSkipPage;
        FileStep& step = order_[u.step];
        for (uint64_t p = u.first_page; p <= u.last_page; ++p) {
          step.modes[p] = mode;
        }
      }
      prefix_max = i == 0 ? u.max_pk : std::max(prefix_max, u.max_pk);
    }
    for (FileStep& step : order_) {
      step.skip_all =
          !step.modes.empty() &&
          std::all_of(step.modes.begin(), step.modes.end(),
                      [](uint8_t m) { return m == kSkipPage; });
    }
  }

  const VersionFirstEngine* engine_;
  std::vector<FileStep> order_;
  size_t step_ = 0;
  std::optional<ReverseSegmentReader> reader_;
  std::unordered_set<int64_t> seen_;
  PreparedPredicate prepared_;
  uint64_t limit_;
  uint32_t row_bytes_;
  ScanStats stats_;
  Status status_;
};

Result<std::unique_ptr<ScanCursor>> VersionFirstEngine::NewScan(
    const ScanSpec& spec) {
  DECIBEL_RETURN_NOT_OK(ValidateScanSpec(spec, schema_));
  // Roots for live branches are captured under the branch's stripe lock:
  // a head's record count only moves on batch boundaries there, so the
  // snapshot never lands inside a half-applied batch. Commit roots are
  // batch-aligned by construction.
  auto capture_order = [this](const Root& root) {
    std::vector<BranchScanCursor::FileStep> steps;
    for (const ScanStep& s : ComputeScanOrder(root)) {
      BranchScanCursor::FileStep step;
      step.file = segments_[s.seg]->file.get();
      step.bound = s.bound;
      steps.push_back(std::move(step));
    }
    return steps;
  };
  switch (spec.view) {
    case ScanView::kBranch: {
      std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
      Root root;
      {
        std::lock_guard<std::mutex> stripe_lock(
            stripes_.ForBranch(spec.branch));
        DECIBEL_ASSIGN_OR_RETURN(root, RootForBranch(spec.branch));
      }
      return std::unique_ptr<ScanCursor>(
          new BranchScanCursor(this, capture_order(root), spec));
    }
    case ScanView::kCommit: {
      DECIBEL_ASSIGN_OR_RETURN(Root root, RootForCommit(spec.commit));
      std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
      return std::unique_ptr<ScanCursor>(
          new BranchScanCursor(this, capture_order(root), spec));
    }
    case ScanView::kMulti: {
      std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
      std::vector<Root> roots;
      roots.reserve(spec.branches.size());
      {
        StripeLocks::MultiGuard stripe_locks(stripes_, spec.branches);
        for (BranchId b : spec.branches) {
          DECIBEL_ASSIGN_OR_RETURN(Root root, RootForBranch(b));
          roots.push_back(root);
        }
      }
      // Pass 1 builds the winner tables eagerly (§3.3's intermediate hash
      // tables). Pass 2 turns them into per-segment winner bitmaps, one
      // column per root plus their union, and streams them in (segment,
      // record) order — the paper's output priority queue — through the
      // cursor hybrid uses, with the same zone-map pruning. A winner
      // table already resolved visibility, so the pruning is sound here.
      std::vector<WinnerTable> tables;
      DECIBEL_RETURN_NOT_OK(BuildWinnerTables(roots, &tables, nullptr));
      std::vector<ScanPart> by_seg(segments_.size());
      for (uint32_t r = 0; r < tables.size(); ++r) {
        for (const auto& [pk, winner] : tables[r]) {
          if (winner.tombstone) continue;
          ScanPart& part = by_seg[winner.seg];
          if (part.cols.empty()) {
            part.file = segments_[winner.seg]->file.get();
            part.cols.assign(roots.size(), Bitmap(part.file->num_records()));
          }
          part.cols[r].Set(winner.idx);
        }
      }
      std::vector<ScanPart> parts;
      for (ScanPart& part : by_seg) {
        if (part.cols.empty()) continue;
        for (const Bitmap& col : part.cols) part.unioned.OrWith(col);
        parts.push_back(std::move(part));
      }
      const uint64_t segments_skipped = DropUnmatchableParts(
          PreparedPredicate(spec.predicate, schema_), &parts);
      return std::unique_ptr<ScanCursor>(
          new PartsCursor(&schema_, &scan_counters_, std::move(parts),
                          segments_skipped, spec.branches, spec));
    }
    case ScanView::kDiff:
      return MakeDiffScanCursor(
          schema_, spec, &scan_counters_, [&](const DiffRowSink& emit) {
            return DiffRows(spec.branch, spec.diff_base, emit);
          });
    case ScanView::kHeads:
      break;  // rejected by ValidateScanSpec
  }
  return Status::InvalidArgument("version-first: unsupported scan view");
}

Result<Record> VersionFirstEngine::Get(BranchId branch, int64_t pk) {
  // Point lookup through the branch's pk index (a tombstoned or absent
  // key is simply not in the map) — the old ancestry walk paid O(history)
  // page reads per Get, the cost §3.3 conceded to the bitmap engines.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  Loc loc;
  {
    std::lock_guard<std::mutex> stripe_lock(stripes_.ForBranch(branch));
    if (head_seg_.count(branch) == 0) {
      return Status::NotFound("version-first: unknown branch " +
                              std::to_string(branch));
    }
    auto branch_it = pk_index_.find(branch);
    auto rec_it = branch_it == pk_index_.end() ? PkIndex::iterator()
                                               : branch_it->second.find(pk);
    if (branch_it == pk_index_.end() || rec_it == branch_it->second.end()) {
      return Status::NotFound("version-first: no record with pk " +
                              std::to_string(pk));
    }
    loc = rec_it->second;
  }
  // Appended records are immutable; the read needs no lock.
  std::string buf;
  DECIBEL_RETURN_NOT_OK(FetchRecord(loc.seg, loc.idx, &buf));
  return Record(&schema_, Slice(buf));
}

// ------------------------------------------------------------ winner tables

Status VersionFirstEngine::BuildWinnerTables(
    const std::vector<Root>& roots, std::vector<WinnerTable>* tables,
    uint64_t* bytes_scanned) const {
  tables->assign(roots.size(), WinnerTable());

  // Per root: each segment's rank in the root's scan order and its bound,
  // indexed by segment id (kNotInRoot marks segments outside the
  // ancestry), so the per-record test below is two array reads.
  constexpr uint32_t kNotInRoot = UINT32_MAX;
  struct PerRoot {
    std::vector<uint32_t> rank;
    std::vector<uint64_t> bound;
  };
  std::vector<PerRoot> per_root(roots.size());
  std::map<uint32_t, uint64_t> union_bound;  // seg -> widest bound
  for (size_t r = 0; r < roots.size(); ++r) {
    per_root[r].rank.assign(segments_.size(), kNotInRoot);
    per_root[r].bound.assign(segments_.size(), 0);
    const std::vector<ScanStep> order = ComputeScanOrder(roots[r]);
    for (uint32_t pos = 0; pos < order.size(); ++pos) {
      per_root[r].rank[order[pos].seg] = pos;
      per_root[r].bound[order[pos].seg] = order[pos].bound;
      uint64_t& ub = union_bound[order[pos].seg];
      ub = std::max(ub, order[pos].bound);
    }
  }

  // One reverse pass over every segment in the union of ancestries
  // ("multiple intermediate hash tables ... scanning the segment from the
  // branch point backwards", §3.3 — we fold the intermediate tables into
  // one winner table per branch keyed by scan rank).
  for (const auto& [seg, bound] : union_bound) {
    ReverseSegmentReader reader(segments_[seg]->file.get(), &schema_, bound);
    RecordRef rec;
    uint64_t idx;
    while (reader.Prev(&rec, &idx)) {
      if (bytes_scanned != nullptr) *bytes_scanned += schema_.record_size();
      const int64_t pk = rec.pk();
      for (size_t r = 0; r < roots.size(); ++r) {
        const uint32_t rank = per_root[r].rank[seg];
        if (rank == kNotInRoot || idx >= per_root[r].bound[seg]) continue;
        auto [it, inserted] = (*tables)[r].try_emplace(pk);
        // Newer wins: smaller rank, then larger record index.
        if (inserted || rank < it->second.rank ||
            (rank == it->second.rank && idx > it->second.idx)) {
          it->second = Winner{seg, idx, rank, rec.tombstone()};
        }
      }
    }
    DECIBEL_RETURN_NOT_OK(reader.status());
  }
  return Status::OK();
}

Status VersionFirstEngine::FetchRecord(uint32_t seg, uint64_t idx,
                                       std::string* buf) const {
  return segments_[seg]->file->Get(idx, buf);
}

// --------------------------------------------------------------------- diff

Status VersionFirstEngine::DiffRows(BranchId a, BranchId b,
                                    const DiffRowSink& emit) {
  // Version-first diffs pay for full winner-table construction over both
  // ancestries ("the need to make multiple passes over the dataset to
  // identify the active records in both versions", §5.2).
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  Root root_a, root_b;
  {
    StripeLocks::MultiGuard stripe_locks(stripes_, {a, b});
    DECIBEL_ASSIGN_OR_RETURN(root_a, RootForBranch(a));
    DECIBEL_ASSIGN_OR_RETURN(root_b, RootForBranch(b));
  }
  std::vector<WinnerTable> tables;
  DECIBEL_RETURN_NOT_OK(BuildWinnerTables({root_a, root_b}, &tables, nullptr));
  const WinnerTable& wb = tables[1];
  std::string buf;
  for (const auto& [pk, winner] : tables[0]) {
    if (winner.tombstone) continue;
    auto it = wb.find(pk);
    if (it != wb.end() && !it->second.tombstone) continue;
    DECIBEL_RETURN_NOT_OK(FetchRecord(winner.seg, winner.idx, &buf));
    emit(RecordRef(&schema_, buf));
  }
  return Status::OK();
}

// -------------------------------------------------------------------- merge

Status VersionFirstEngine::MergeWalk(CommitId left, CommitId right,
                                     CommitId base, const MergeWalkCallback& cb,
                                     MergeWalkStats* stats) {
  // Ancestry-aware walk. \p base must be a common ancestor of both sides
  // (the facade passes the version graph's LCA), so each side's visible
  // regions are base's regions plus a *suffix* — per-segment record
  // ranges beyond base's visibility bound — minus a possible *deficit*:
  // regions base sees but the side does not (the lca can sit on a third
  // branch, or later on a shared ancestor segment than the side's own
  // fork point). Two facts make suffix scanning sufficient:
  //
  //  1. A key with no version in a side's suffix resolves, on that side,
  //     to the first hit among base-pass positions *visible to the side*:
  //     the side's candidates are then a subset of base's, shared
  //     ancestors scan in the same relative order from either root, and
  //     any order-ambiguous versions were reconciled by the merge that
  //     joined their chains (merges materialize every differing key into
  //     the merged head, a descendant of both chains, so
  //     children-before-parents order pins the content regardless of
  //     tie-breaks). No visible hit at all means the key is absent on
  //     that side — base seeing a record in a side's deficit region must
  //     not resurrect it.
  //  2. A key's first hit walking a side's suffix in scan order is that
  //     side's winning content, by the same materialization argument.
  //
  // So: walk both suffixes (cheap — proportional to post-ancestor work,
  // not history size) to collect the candidate set, then resolve the
  // candidates' base states — and the suffix-less sides' states — with
  // one early-exiting pass over base's scan order. This replaces the
  // former three full winner-table passes over the union ancestry — the
  // cost §5.4 showed version-first losing on.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  DECIBEL_ASSIGN_OR_RETURN(Root root_l, RootForCommit(left));
  DECIBEL_ASSIGN_OR_RETURN(Root root_r, RootForCommit(right));
  DECIBEL_ASSIGN_OR_RETURN(Root root_b, RootForCommit(base));
  const uint32_t rs = schema_.record_size();

  // Per-root visibility bounds, seg -> bound (absent = invisible).
  std::unordered_map<uint32_t, uint64_t> coverage, vis_l, vis_r;
  for (const ScanStep& step : ComputeScanOrder(root_b)) {
    coverage[step.seg] = step.bound;
  }
  for (const ScanStep& step : ComputeScanOrder(root_l)) {
    vis_l[step.seg] = step.bound;
  }
  for (const ScanStep& step : ComputeScanOrder(root_r)) {
    vis_r[step.seg] = step.bound;
  }

  // pk -> the key's state at {left, right, base}; nullopt = not live.
  // A side whose done flag never rises is absent (no visible version
  // anywhere). The ordered map doubles as the ascending-pk emission
  // order.
  struct States {
    std::optional<Record> l, r, b;
    bool l_done = false, r_done = false, b_done = false;
  };
  std::map<int64_t, States> keys;

  auto walk_suffix = [&](const Root& root, bool is_left) -> Status {
    for (const ScanStep& step : ComputeScanOrder(root)) {
      auto cov = coverage.find(step.seg);
      const uint64_t lo = cov == coverage.end() ? 0 : cov->second;
      if (lo >= step.bound) continue;  // fully covered by base
      ReverseSegmentReader reader(segments_[step.seg]->file.get(), &schema_,
                                  step.bound);
      RecordRef rec;
      uint64_t idx;
      while (reader.Prev(&rec, &idx)) {
        if (idx < lo) break;  // descended into the base-covered range
        stats->bytes_processed += rs;
        States& s = keys[rec.pk()];
        bool& done = is_left ? s.l_done : s.r_done;
        if (done) continue;  // first suffix hit wins (fact 2)
        done = true;
        if (!rec.tombstone()) {
          (is_left ? s.l : s.r).emplace(&schema_, rec.data());
        }
      }
      DECIBEL_RETURN_NOT_OK(reader.status());
    }
    return Status::OK();
  };
  DECIBEL_RETURN_NOT_OK(walk_suffix(root_l, /*is_left=*/true));
  DECIBEL_RETURN_NOT_OK(walk_suffix(root_r, /*is_left=*/false));

  // One base pass, filtered to the candidates, stopping as soon as every
  // candidate is fully resolved. The first hit is the key's base state;
  // the first hit *visible to a suffix-less side* is that side's state
  // (fact 1). Candidates never seen are new inserts (absent at base).
  size_t unresolved = keys.size();
  auto visible = [](const std::unordered_map<uint32_t, uint64_t>& vis,
                    uint32_t seg, uint64_t idx) {
    auto it = vis.find(seg);
    return it != vis.end() && idx < it->second;
  };
  for (const ScanStep& step : ComputeScanOrder(root_b)) {
    if (unresolved == 0) break;
    ReverseSegmentReader reader(segments_[step.seg]->file.get(), &schema_,
                                step.bound);
    RecordRef rec;
    uint64_t idx;
    while (unresolved != 0 && reader.Prev(&rec, &idx)) {
      stats->bytes_processed += rs;
      auto it = keys.find(rec.pk());
      if (it == keys.end()) continue;
      States& s = it->second;
      if (s.b_done && s.l_done && s.r_done) continue;
      if (!s.b_done) {
        s.b_done = true;
        if (!rec.tombstone()) s.b.emplace(&schema_, rec.data());
      }
      if (!s.l_done && visible(vis_l, step.seg, idx)) {
        s.l_done = true;
        if (!rec.tombstone()) s.l.emplace(&schema_, rec.data());
      }
      if (!s.r_done && visible(vis_r, step.seg, idx)) {
        s.r_done = true;
        if (!rec.tombstone()) s.r.emplace(&schema_, rec.data());
      }
      if (s.b_done && s.l_done && s.r_done) --unresolved;
    }
    DECIBEL_RETURN_NOT_OK(reader.status());
  }

  for (auto& [pk, s] : keys) {
    MergeWalkItem item;
    item.pk = pk;
    std::optional<RecordRef> ref_l, ref_r, ref_b;
    if (s.b.has_value()) {
      ref_b.emplace(s.b->ref());
      item.base = &*ref_b;
    }
    if (s.l.has_value()) {
      ref_l.emplace(s.l->ref());
      item.left = &*ref_l;
    }
    if (s.r.has_value()) {
      ref_r.emplace(s.r->ref());
      item.right = &*ref_r;
    }
    ++stats->keys_emitted;
    DECIBEL_RETURN_NOT_OK(cb(item));
  }
  return Status::OK();
}

// -------------------------------------------------------------------- stats

EngineStats VersionFirstEngine::Stats() const {
  EngineStats stats;
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  for (const auto& segment : segments_) {
    stats.data_bytes += segment->file->SizeBytes();
    stats.num_records += segment->file->num_records();
  }
  stats.num_segments = segments_.size();
  {
    // The pk indexes are per-branch state guarded by the stripes.
    StripeLocks::AllGuard stripe_locks(stripes_);
    for (const auto& [branch, pks] : pk_index_) {
      stats.index_memory_bytes += HashTableMemoryBytes(pks);
    }
  }
  {
    // Commits are (segment, offset) pairs — the whole registry is tiny.
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    stats.commit_store_bytes = commits_.size() * 20;
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

}  // namespace decibel
