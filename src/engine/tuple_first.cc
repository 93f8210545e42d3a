#include "engine/tuple_first.h"

#include <map>

#include "common/coding.h"
#include "engine/diff_util.h"
#include "engine/scan_util.h"

namespace decibel {

namespace {

/// Streaming cursor over one materialized bitmap view of the striped heap.
/// For multi-branch views `cols` holds the requested branches' columns and
/// `bits` their union; the predicate is evaluated on the raw in-page
/// record bytes *before* the per-branch membership annotation, so
/// predicate-failing tuples cost one comparison and no bitmap probes.
///
/// The cursor owns its bitmap snapshot and extent-mapping snapshot, so it
/// never touches engine state after construction: scans stream lock-free
/// and never observe a half-applied batch.
class TupleFirstCursor : public ScanCursor {
 public:
  TupleFirstCursor(StripedHeap::Mapping mapping, const Schema* schema,
                   Bitmap bits, std::vector<Bitmap> cols,
                   std::vector<BranchId> branch_list, const ScanSpec& spec,
                   ScanCounters* counters)
      : bits_(std::move(bits)),
        cols_(std::move(cols)),
        branch_list_(std::move(branch_list)),
        scanner_(std::move(mapping), schema, &bits_),
        prepared_(spec.predicate, *schema),
        limit_(spec.limit),
        row_bytes_(ProjectedRowBytes(*schema, spec.projection)),
        counters_(counters) {
    // The bitmap already resolved visibility, so zone-map page skipping
    // is always sound here (see StripedBitmapScanner::EnablePruning).
    scanner_.EnablePruning(&prepared_, &stats_);
  }
  ~TupleFirstCursor() override { counters_->Add(stats_); }

  bool Next(ScanRow* out) override {
    if (limit_ != 0 && stats_.rows_emitted >= limit_) return false;
    RecordRef rec;
    uint64_t idx;
    while (scanner_.Next(&rec, &idx)) {
      ++stats_.rows_scanned;
      stats_.bytes_scanned += row_bytes_;
      if (!prepared_.Matches(rec.data().data())) continue;
      if (!cols_.empty()) {
        present_.clear();
        for (uint32_t i = 0; i < cols_.size(); ++i) {
          if (cols_[i].Test(idx)) present_.push_back(i);
        }
        out->branches = &present_;
      } else {
        out->branches = nullptr;
      }
      out->record = rec;
      ++stats_.rows_emitted;
      return true;
    }
    return false;
  }

  const Status& status() const override { return scanner_.status(); }
  const ScanStats& stats() const override { return stats_; }
  const std::vector<BranchId>& branches() const override {
    return branch_list_;
  }

 private:
  Bitmap bits_;
  std::vector<Bitmap> cols_;
  std::vector<BranchId> branch_list_;
  StripedBitmapScanner scanner_;
  PreparedPredicate prepared_;
  uint64_t limit_;
  uint32_t row_bytes_;
  ScanCounters* counters_;
  std::vector<uint32_t> present_;
  ScanStats stats_;
};

}  // namespace

std::string TupleFirstEngine::HistoryPath(BranchId branch) const {
  return JoinPath(core_.options().directory,
                  "commits/branch_" + std::to_string(branch) + ".hist");
}

Status TupleFirstEngine::InitFresh() {
  const EngineOptions& options = core_.options();
  StripedHeap::Options hopts;
  hopts.page_size = options.page_size;
  hopts.stripes = static_cast<uint32_t>(core_.stripes().count());
  hopts.schema = &core_.schema();
  hopts.compress_pages = options.compress_pages;
  DECIBEL_ASSIGN_OR_RETURN(
      heap_, StripedHeap::Create(options.directory,
                                 core_.schema().record_size(), hopts,
                                 core_.pool()));
  index_ = BitmapIndex::Make(options.orientation);
  // The master branch exists from the start.
  index_->AddBranch(kMasterBranch);
  core_.Register(kMasterBranch);
  return Status::OK();
}

Status TupleFirstEngine::LoadExisting() {
  const EngineOptions& options = core_.options();
  StripedHeap::Options hopts;
  hopts.schema = &core_.schema();
  hopts.compress_pages = options.compress_pages;
  DECIBEL_ASSIGN_OR_RETURN(heap_,
                           StripedHeap::Open(options.directory, hopts,
                                             core_.pool(),
                                             options.checkpoint_tag));
  std::string meta;
  Slice input;
  DECIBEL_RETURN_NOT_OK(core_.ReadMeta(options.checkpoint_tag, &meta, &input));
  DECIBEL_ASSIGN_OR_RETURN(index_, BitmapIndex::DecodeFrom(&input));
  uint64_t num_commits;
  if (!GetVarint64(&input, &num_commits)) {
    return Status::Corruption("tuple-first: truncated commit registry");
  }
  for (uint64_t i = 0; i < num_commits; ++i) {
    uint64_t commit;
    uint32_t branch;
    if (!GetVarint64(&input, &commit) || !GetVarint32(&input, &branch)) {
      return Status::Corruption("tuple-first: truncated commit entry");
    }
    commit_branch_[commit] = branch;
  }
  uint64_t num_branches;
  if (!GetVarint64(&input, &num_branches)) {
    return Status::Corruption("tuple-first: truncated branch list");
  }
  std::vector<BranchId> branches(num_branches);
  for (uint64_t i = 0; i < num_branches; ++i) {
    if (!GetVarint32(&input, &branches[i])) {
      return Status::Corruption("tuple-first: truncated branch entry");
    }
  }
  uint64_t num_histories;
  if (!GetVarint64(&input, &num_histories)) {
    return Status::Corruption("tuple-first: truncated history registry");
  }
  for (uint64_t i = 0; i < num_histories; ++i) {
    uint32_t branch;
    uint64_t bytes;
    if (!GetVarint32(&input, &branch) || !GetVarint64(&input, &bytes)) {
      return Status::Corruption("tuple-first: truncated history entry");
    }
    // Records appended to the history after the checkpoint (and any torn
    // tail record) are cut away first so Open parses exactly the
    // checkpointed state and WAL replay can re-append from there.
    DECIBEL_RETURN_NOT_OK(TruncateFile(HistoryPath(branch), bytes));
    DECIBEL_ASSIGN_OR_RETURN(histories_[branch],
                             CommitHistory::Open(HistoryPath(branch)));
  }
  for (BranchId branch : branches) {
    // The pk index is memory-only; rebuild it from the branch's bitmap.
    DECIBEL_RETURN_NOT_OK(RebuildPkIndex(branch));
  }
  return Status::OK();
}

std::string TupleFirstEngine::EncodeMeta() {
  std::string meta;
  core_.EncodeMetaPrefix(&meta);
  index_->EncodeTo(&meta);
  PutVarint64(&meta, commit_branch_.size());
  for (const auto& [commit, branch] : commit_branch_) {
    PutVarint64(&meta, commit);
    PutVarint32(&meta, branch);
  }
  PutVarint64(&meta, core_.indexes().size());
  for (const auto& [branch, pks] : core_.indexes()) {
    PutVarint32(&meta, branch);
  }
  {
    std::lock_guard<std::mutex> commits(commit_mu_);
    PutVarint64(&meta, histories_.size());
    for (const auto& [branch, history] : histories_) {
      PutVarint32(&meta, branch);
      PutVarint64(&meta, history->SizeBytes());
    }
  }
  return meta;
}

Status TupleFirstEngine::ReleaseBranch(BranchId branch) {
  // The heap is shared across branches and stays open; only the retired
  // branch's commit-history descriptors are released. The histories_
  // entry stays (it is the authority over the on-disk file — a map miss
  // would truncate on the next HistoryFor) and reopens lazily if read.
  // The pk index is dropped until the branch is read, written or forked
  // again; the branch stays in engine.meta's branch list.
  std::unique_lock<std::shared_mutex> registry(core_.registry_mu());
  core_.Release(branch);
  std::lock_guard<std::mutex> commits(commit_mu_);
  auto it = histories_.find(branch);
  if (it == histories_.end()) return Status::OK();
  return it->second->ReleaseFileHandles();
}

Status TupleFirstEngine::Checkpoint(const std::string& tag, bool sync) {
  std::unique_lock<std::shared_mutex> registry(core_.registry_mu());
  DECIBEL_RETURN_NOT_OK(heap_->Checkpoint(tag, sync));
  if (sync) {
    std::lock_guard<std::mutex> commits(commit_mu_);
    for (auto& [branch, history] : histories_) {
      DECIBEL_RETURN_NOT_OK(history->Sync());
    }
  }
  return core_.WriteMeta(tag, EncodeMeta(), sync);
}

Status TupleFirstEngine::RemoveCheckpoint(const std::string& tag) {
  DECIBEL_RETURN_NOT_OK(heap_->RemoveCheckpoint(tag));
  return core_.RemoveMeta(tag);
}

Result<CommitHistory*> TupleFirstEngine::HistoryFor(BranchId branch) {
  std::lock_guard<std::mutex> commits(commit_mu_);
  auto it = histories_.find(branch);
  if (it != histories_.end()) return it->second.get();
  const std::string path = HistoryPath(branch);
  // histories_ (restored from the meta on reopen) is authoritative: a
  // miss means any on-disk history file for this branch is stale
  // post-checkpoint debris from a crash, and Create truncates it away
  // (WAL replay re-appends its commits).
  Result<std::unique_ptr<CommitHistory>> h = CommitHistory::Create(path);
  if (!h.ok()) return h.status();
  CommitHistory* raw = h.value().get();
  histories_.emplace(branch, std::move(h).MoveValueUnsafe());
  return raw;
}

Status TupleFirstEngine::RebuildPkIndex(BranchId b) {
  PkIndex* idx = core_.Register(b);
  idx->Clear();
  const Bitmap view = index_->MaterializeBranch(b);
  StripedBitmapScanner scanner(heap_->SnapshotMapping(), &core_.schema(),
                               &view);
  RecordRef rec;
  uint64_t pos;
  while (scanner.Next(&rec, &pos)) {
    idx->Put(rec.pk(), pos);
  }
  return scanner.status();
}

// --------------------------------------------------------- version control

Status TupleFirstEngine::CreateBranch(BranchId child, BranchId parent,
                                      CommitId base_commit, bool at_head) {
  // Branch creation changes registry shape (new bitmap column, new pk
  // map), so it is the one writer that excludes everything engine-wide.
  std::unique_lock<std::shared_mutex> registry(core_.registry_mu());
  DECIBEL_RETURN_NOT_OK(core_.CheckFork(child, parent));
  if (at_head) {
    // "A branch operation clones the state of the parent branch's bitmap"
    // (§3.2) — plus the parent's pk index for update support.
    DECIBEL_RETURN_NOT_OK(core_.ForkIndex(child, parent));
    index_->CloneBranch(parent, child);
    return Status::OK();
  }
  DECIBEL_ASSIGN_OR_RETURN(Bitmap bits, CommitBitmap(base_commit));
  index_->AddBranch(child);
  index_->RestoreBranch(child, bits);
  return RebuildPkIndex(child);
}

Status TupleFirstEngine::Commit(BranchId branch, CommitId commit_id) {
  std::shared_lock<std::shared_mutex> registry(core_.registry_mu());
  DECIBEL_RETURN_NOT_OK(core_.CheckKnown(branch));
  StripeGuard stripe(this, {branch});
  DECIBEL_ASSIGN_OR_RETURN(CommitHistory * history, HistoryFor(branch));
  const Bitmap* view = index_->BranchView(branch);
  Bitmap owned;
  if (view == nullptr) {
    owned = index_->MaterializeBranch(branch);
    view = &owned;
  }
  DECIBEL_RETURN_NOT_OK(history->AppendCommit(commit_id, *view));
  std::lock_guard<std::mutex> commits(commit_mu_);
  commit_branch_[commit_id] = branch;
  return Status::OK();
}

Result<Bitmap> TupleFirstEngine::CommitBitmap(CommitId commit) {
  BranchId branch;
  {
    std::lock_guard<std::mutex> commits(commit_mu_);
    auto it = commit_branch_.find(commit);
    if (it == commit_branch_.end()) {
      return Status::NotFound("tuple-first: unknown commit " +
                              std::to_string(commit));
    }
    branch = it->second;
  }
  DECIBEL_ASSIGN_OR_RETURN(CommitHistory * history, HistoryFor(branch));
  // The CommitHistory's own lock makes the checkout safe against the
  // owning branch appending a newer commit concurrently.
  return history->Checkout(commit, heap_->allocated_bound());
}

Status TupleFirstEngine::Checkout(CommitId commit) {
  return CommitBitmap(commit).status();
}

// ----------------------------------------------------------------- mutation

Status TupleFirstEngine::ApplyBatch(BranchId branch, const WriteBatch& batch) {
  // Writers on the same stripe serialize here; disjoint stripes commit in
  // parallel. Writers on the same *branch* are already serialized above
  // us by the facade's branch lock.
  std::shared_lock<std::shared_mutex> registry(core_.registry_mu());
  DECIBEL_RETURN_NOT_OK(core_.Restore(&registry, branch));
  StripeGuard stripe(this, {branch});
  DECIBEL_ASSIGN_OR_RETURN(PkIndex * pks, core_.BeginBatch(branch, batch));

  // One pass: the record payloads go to this branch's heap stripe in
  // page-sized chunks (the stripe allocator hands back the assigned
  // global indices as at most two contiguous runs), the bitmap universe
  // grows once to the heap's allocated bound — instead of paying each
  // per record.
  StripedHeap::RunList runs;
  if (batch.num_appends() > 0) {
    DECIBEL_RETURN_NOT_OK(heap_->AppendBatch(
        StripeOf(branch), batch.arena(), batch.num_appends(), &runs));
    index_->EnsureTuples(heap_->allocated_bound());
  }
  size_t run_pos = 0;
  uint64_t run_off = 0;
  for (const WriteBatch::Op& op : batch.ops()) {
    if (op.kind == WriteBatch::OpKind::kDelete) {
      index_->Set(*pks->Find(op.pk), branch, false);
      pks->Erase(op.pk);
      continue;
    }
    while (run_off == runs[run_pos].count) {
      ++run_pos;
      run_off = 0;
    }
    const uint64_t idx = runs[run_pos].base + run_off++;
    auto [stored, inserted] = pks->TryEmplace(batch.RecordAt(op).pk(), idx);
    if (!inserted) {
      // "the index bit of the previous version of the record is unset"
      // §3.2
      index_->Set(*stored, branch, false);
      *stored = idx;
    }
    index_->Set(idx, branch, true);
  }
  return Status::OK();
}

// ------------------------------------------------------------------ queries

Result<std::unique_ptr<ScanCursor>> TupleFirstEngine::NewScan(
    const ScanSpec& spec) {
  const Schema* schema = &core_.schema();
  DECIBEL_RETURN_NOT_OK(ValidateScanSpec(spec, *schema));
  switch (spec.view) {
    case ScanView::kBranch: {
      std::shared_lock<std::shared_mutex> registry(core_.registry_mu());
      DECIBEL_RETURN_NOT_OK(core_.CheckKnown(spec.branch));
      // Materialize the snapshot under the branch's stripe (for the
      // tuple-oriented layout this walks the whole matrix — the
      // single-branch scan penalty of §3.2), then stream lock-free.
      Bitmap bits;
      {
        StripeGuard stripe(this, {spec.branch});
        bits = index_->MaterializeBranch(spec.branch);
      }
      return std::unique_ptr<ScanCursor>(new TupleFirstCursor(
          heap_->SnapshotMapping(), schema, std::move(bits), {}, {}, spec,
          core_.scan_counters()));
    }
    case ScanView::kCommit: {
      DECIBEL_ASSIGN_OR_RETURN(Bitmap bits, CommitBitmap(spec.commit));
      return std::unique_ptr<ScanCursor>(new TupleFirstCursor(
          heap_->SnapshotMapping(), schema, std::move(bits), {}, {}, spec,
          core_.scan_counters()));
    }
    case ScanView::kMulti: {
      // One pass over the heap, each tuple annotated with the branches it
      // is live in (§3.2 Multi-branch Scan). All requested stripes are
      // held together so the cross-branch snapshot is consistent.
      std::shared_lock<std::shared_mutex> registry(core_.registry_mu());
      for (BranchId b : spec.branches) {
        DECIBEL_RETURN_NOT_OK(core_.CheckKnown(b));
      }
      std::vector<Bitmap> cols;
      cols.reserve(spec.branches.size());
      Bitmap unioned;
      {
        StripeGuard stripes(this, spec.branches);
        for (BranchId b : spec.branches) {
          cols.push_back(index_->MaterializeBranch(b));
          unioned.OrWith(cols.back());
        }
      }
      return std::unique_ptr<ScanCursor>(new TupleFirstCursor(
          heap_->SnapshotMapping(), schema, std::move(unioned),
          std::move(cols), spec.branches, spec, core_.scan_counters()));
    }
    case ScanView::kDiff:
      return MakeDiffScanCursor(
          *schema, spec, core_.scan_counters(), [&](const DiffRowSink& emit) {
            return DiffRows(spec.branch, spec.diff_base, emit);
          });
    case ScanView::kHeads:
      break;  // rejected by ValidateScanSpec
  }
  return Status::InvalidArgument("tuple-first: unsupported scan view");
}

Result<Record> TupleFirstEngine::Get(BranchId branch, int64_t pk) {
  uint64_t idx;
  {
    std::shared_lock<std::shared_mutex> registry(core_.registry_mu());
    DECIBEL_ASSIGN_OR_RETURN(idx, core_.Probe(&registry, branch, pk));
  }
  // Appended records are immutable; the read needs no lock.
  std::string buf;
  DECIBEL_RETURN_NOT_OK(heap_->Get(idx, &buf));
  return Record(&core_.schema(), Slice(buf));
}

Status TupleFirstEngine::DiffRows(BranchId a, BranchId b,
                                  const DiffRowSink& emit) {
  // "Diff is straightforward to compute in tuple-first: we simply XOR
  // bitmaps together and emit records on the appropriate iterator" (§3.2).
  // Both stripes are taken together (ascending order) so the two columns
  // form one consistent snapshot; the record walk then runs lock-free.
  Bitmap bits_a, bits_b;
  {
    std::shared_lock<std::shared_mutex> registry(core_.registry_mu());
    for (BranchId x : {a, b}) DECIBEL_RETURN_NOT_OK(core_.CheckKnown(x));
    StripeGuard stripes(this, {a, b});
    bits_a = index_->MaterializeBranch(a);
    bits_b = index_->MaterializeBranch(b);
  }
  const StripedHeap::Mapping mapping = heap_->SnapshotMapping();
  // One walk over the changed rows (a XOR b); DiffEmitter holds a's rows
  // back until the walk has seen every key b changed.
  const Bitmap only_a = Bitmap::AndNot(bits_a, bits_b);
  const Bitmap both = Bitmap::Xor(bits_a, bits_b);
  DiffEmitter emitter(&core_.schema());
  StripedBitmapScanner scanner(mapping, &core_.schema(), &both);
  RecordRef rec;
  uint64_t idx;
  while (scanner.Next(&rec, &idx)) emitter.Add(rec, only_a.Test(idx));
  DECIBEL_RETURN_NOT_OK(scanner.status());
  emitter.Finish(emit);
  return Status::OK();
}

// -------------------------------------------------------------------- merge

Status TupleFirstEngine::MergeWalk(CommitId left, CommitId right,
                                   CommitId base, const MergeWalkCallback& cb,
                                   MergeWalkStats* stats) {
  // Pure bitmap algebra over three committed snapshots (§3.2): the mask
  // (L⊕B)|(R⊕B) covers every live position of every changed key. Proof:
  // each commit carries at most one live position per pk (update unsets
  // the prior version's bit); a position outside the mask is live in all
  // three commits or none, so a pk with a live position outside the mask
  // has that same position in left, right and base — i.e. it never
  // changed. Commit checkouts are internally locked and heap records are
  // immutable once appended, so the walk needs no engine locks.
  DECIBEL_ASSIGN_OR_RETURN(Bitmap bits_l, CommitBitmap(left));
  DECIBEL_ASSIGN_OR_RETURN(Bitmap bits_r, CommitBitmap(right));
  DECIBEL_ASSIGN_OR_RETURN(Bitmap bits_b, CommitBitmap(base));
  const StripedHeap::Mapping mapping = heap_->SnapshotMapping();
  const Schema* schema = &core_.schema();
  const uint32_t rs = schema->record_size();

  const Bitmap mask =
      Bitmap::Or(Bitmap::Xor(bits_l, bits_b), Bitmap::Xor(bits_r, bits_b));

  // One heap pass over the mask, grouping positions by primary key. The
  // ordered map also gives the ascending-pk emission order.
  constexpr uint64_t kAbsent = ~uint64_t{0};
  struct Positions {
    uint64_t l = kAbsent, r = kAbsent, b = kAbsent;
  };
  std::map<int64_t, Positions> keys;
  {
    StripedBitmapScanner scanner(mapping, schema, &mask);
    RecordRef rec;
    uint64_t idx;
    while (scanner.Next(&rec, &idx)) {
      Positions& p = keys[rec.pk()];
      if (bits_l.Test(idx)) p.l = idx;
      if (bits_r.Test(idx)) p.r = idx;
      if (bits_b.Test(idx)) p.b = idx;
      stats->bytes_processed += rs;
    }
    DECIBEL_RETURN_NOT_OK(scanner.status());
  }

  // Emit each key's three states. Positions shared between commits share
  // one fetch (common case: unchanged-on-one-side keys).
  std::string buf_l, buf_r, buf_b;
  for (const auto& [pk, pos] : keys) {
    MergeWalkItem item;
    item.pk = pk;
    std::optional<RecordRef> ref_l, ref_r, ref_b;
    if (pos.l != kAbsent) {
      DECIBEL_RETURN_NOT_OK(heap_->Get(pos.l, &buf_l));
      stats->bytes_processed += rs;
      ref_l.emplace(schema, Slice(buf_l));
      item.left = &*ref_l;
    }
    if (pos.r != kAbsent) {
      if (pos.r == pos.l) {
        item.right = item.left;
      } else {
        DECIBEL_RETURN_NOT_OK(heap_->Get(pos.r, &buf_r));
        stats->bytes_processed += rs;
        ref_r.emplace(schema, Slice(buf_r));
        item.right = &*ref_r;
      }
    }
    if (pos.b != kAbsent) {
      if (pos.b == pos.l) {
        item.base = item.left;
      } else if (pos.b == pos.r) {
        item.base = item.right;
      } else {
        DECIBEL_RETURN_NOT_OK(heap_->Get(pos.b, &buf_b));
        stats->bytes_processed += rs;
        ref_b.emplace(schema, Slice(buf_b));
        item.base = &*ref_b;
      }
    }
    ++stats->keys_emitted;
    DECIBEL_RETURN_NOT_OK(cb(item));
  }
  return Status::OK();
}

// -------------------------------------------------------------------- stats

EngineStats TupleFirstEngine::Stats() const {
  return core_.Stats([this](EngineStats* stats) {
    stats->data_bytes = heap_->SizeBytes();
    stats->index_memory_bytes = index_->MemoryBytes();
    {
      std::lock_guard<std::mutex> commits(commit_mu_);
      for (const auto& [branch, history] : histories_) {
        stats->commit_store_bytes += history->SizeBytes();
      }
    }
    stats->num_segments = heap_->stripe_count();
    stats->num_records = heap_->num_records();
  });
}

}  // namespace decibel
