#include "engine/branch_core.h"

#include <unordered_set>

#include "common/coding.h"
#include "common/io.h"

namespace decibel {

namespace {

/// Checks the deletes of \p batch against the branch's live keys \p pks
/// before any op is applied, simulating the batch's own earlier
/// inserts/updates and deletes, so ApplyBatch is all-or-nothing for the
/// one data-dependent failure (deleting an absent key).
Status ValidateBatchDeletes(const WriteBatch& batch, const PkIndex& pks) {
  if (batch.num_appends() == batch.size()) return Status::OK();  // no deletes
  std::unordered_set<int64_t> added, removed;
  for (const WriteBatch::Op& op : batch.ops()) {
    if (op.kind != WriteBatch::OpKind::kDelete) {
      const int64_t pk = batch.RecordAt(op).pk();
      added.insert(pk);
      removed.erase(pk);
      continue;
    }
    const bool live = added.count(op.pk) != 0 ||
                      (removed.count(op.pk) == 0 && pks.Contains(op.pk));
    if (!live) {
      return Status::NotFound("batch deletes pk " + std::to_string(op.pk) +
                              " which is not live in the branch");
    }
    removed.insert(op.pk);
    added.erase(op.pk);
  }
  return Status::OK();
}

}  // namespace

Status BranchCore::CreateDirs(const char* subdir) const {
  DECIBEL_RETURN_NOT_OK(CreateDir(options_.directory));
  if (subdir == nullptr) return Status::OK();
  return CreateDir(JoinPath(options_.directory, subdir));
}

void BranchCore::EncodeMetaPrefix(std::string* meta) const {
  PutEngineMetaHeader(meta);
  std::string schema_blob;
  schema_.EncodeTo(&schema_blob);
  PutLengthPrefixed(meta, schema_blob);
}

Status BranchCore::ReadMeta(const std::string& tag, std::string* meta,
                            Slice* input) const {
  DECIBEL_ASSIGN_OR_RETURN(
      *meta, ReadFileToString(JoinPath(options_.directory,
                                       "engine.meta." + tag)));
  *input = Slice(*meta);
  DECIBEL_RETURN_NOT_OK(CheckEngineMetaHeader(input, name_));
  Slice schema_blob;
  if (!GetLengthPrefixed(input, &schema_blob)) {
    return Status::Corruption(std::string(name_) + ": truncated meta");
  }
  DECIBEL_ASSIGN_OR_RETURN(Schema stored, Schema::DecodeFrom(&schema_blob));
  if (!(stored == schema_)) {
    return Status::InvalidArgument(std::string(name_) +
                                   ": schema mismatch on reopen");
  }
  return Status::OK();
}

Status BranchCore::WriteMeta(const std::string& tag, const std::string& meta,
                             bool sync) const {
  return AtomicWriteFile(JoinPath(options_.directory, "engine.meta." + tag),
                         meta, sync);
}

Status BranchCore::RemoveMeta(const std::string& tag) const {
  return RemoveFile(JoinPath(options_.directory, "engine.meta." + tag));
}

Status BranchCore::CheckKnown(BranchId branch) const {
  if (pk_index_.count(branch) != 0) return Status::OK();
  return Status::NotFound(std::string(name_) + ": unknown branch " +
                          std::to_string(branch));
}

Status BranchCore::CheckFork(BranchId child, BranchId parent) const {
  DECIBEL_RETURN_NOT_OK(CheckKnown(parent));
  if (pk_index_.count(child) == 0) return Status::OK();
  return Status::InvalidArgument(std::string(name_) + ": branch " +
                                 std::to_string(child) + " already exists");
}

Status BranchCore::ForkIndex(BranchId child, BranchId parent) {
  if (released_.count(parent) != 0) {
    DECIBEL_RETURN_NOT_OK(rebuild_index_(parent));
  }
  PkIndex forked = pk_index_.at(parent).Fork();
  pk_index_[child] = std::move(forked);
  return Status::OK();
}

void BranchCore::Release(BranchId branch) {
  auto it = pk_index_.find(branch);
  if (it == pk_index_.end()) return;
  it->second.Clear();
  released_.insert(branch);
}

Status BranchCore::Restore(std::shared_lock<std::shared_mutex>* registry,
                           BranchId branch) {
  while (released_.count(branch) != 0) {
    registry->unlock();
    {
      std::unique_lock<std::shared_mutex> unique(registry_mu_);
      if (released_.count(branch) != 0) {
        DECIBEL_RETURN_NOT_OK(rebuild_index_(branch));
      }
    }
    registry->lock();
  }
  return Status::OK();
}

Result<PkIndex*> BranchCore::BeginBatch(BranchId branch,
                                        const WriteBatch& batch) {
  auto it = pk_index_.find(branch);
  if (it == pk_index_.end()) return CheckKnown(branch);
  DECIBEL_DCHECK(released_.count(branch) == 0);
  DECIBEL_RETURN_NOT_OK(ValidateBatchDeletes(batch, it->second));
  return &it->second;
}

Result<uint64_t> BranchCore::Probe(
    std::shared_lock<std::shared_mutex>* registry, BranchId branch,
    int64_t pk) {
  DECIBEL_RETURN_NOT_OK(Restore(registry, branch));
  std::lock_guard<std::mutex> stripe(stripes_.ForBranch(branch));
  auto it = pk_index_.find(branch);
  if (it == pk_index_.end()) return CheckKnown(branch);
  const uint64_t* found = it->second.Find(pk);
  if (found == nullptr) {
    return Status::NotFound(std::string(name_) + ": no record with pk " +
                            std::to_string(pk));
  }
  return *found;
}

}  // namespace decibel
