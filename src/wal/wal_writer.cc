#include "wal/wal_writer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace decibel {
namespace wal {

bool ParseSyncMode(const std::string& name, SyncMode* mode) {
  static const std::pair<const char*, SyncMode> kNames[] = {
      {"off", SyncMode::kOff},
      {"none", SyncMode::kNone},
      {"flush", SyncMode::kFlush},
      {"fsync", SyncMode::kFsync}};
  for (const auto& [n, m] : kNames) {
    if (name == n) {
      *mode = m;
      return true;
    }
  }
  return false;
}

std::string Writer::SegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "%06llu.wal",
                static_cast<unsigned long long>(seq));
  return JoinPath(dir, name);
}

Result<std::unique_ptr<Writer>> Writer::Open(const std::string& dir,
                                             const Options& options,
                                             uint64_t next_lsn,
                                             uint64_t segment_seq) {
  DECIBEL_RETURN_NOT_OK(CreateDir(dir));
  std::unique_ptr<Writer> w(new Writer(dir, options, next_lsn, segment_seq));
  DECIBEL_RETURN_NOT_OK(w->OpenSegment());
  return w;
}

Status Writer::OpenSegment() {
  // Truncate: recovery never resumes a segment, so any file already at
  // this seq is leftover garbage from a discarded torn tail.
  DECIBEL_ASSIGN_OR_RETURN(
      WritableFile f, WritableFile::Open(SegmentPath(dir_, segment_seq_),
                                         /*truncate=*/true));
  file_ = std::make_unique<WritableFile>(std::move(f));
  if (options_.sync_mode == SyncMode::kFsync) {
    // Opened before the first append, so each description sees every
    // writeback error of the segment (see the file comment).
    auto sync_files = std::make_shared<SyncFiles>();
    sync_files->files.reserve(kSyncFiles);
    for (size_t i = 0; i < kSyncFiles; ++i) {
      DECIBEL_ASSIGN_OR_RETURN(RandomWriteFile h,
                               RandomWriteFile::Open(file_->path()));
      sync_files->files.push_back(std::move(h));
    }
    for (RandomWriteFile& h : sync_files->files) sync_files->free.push_back(&h);
    sync_files_ = std::move(sync_files);
    // The file's own fsync does not persist its directory entry.
    DECIBEL_RETURN_NOT_OK(SyncDir(dir_));
  }
  return Status::OK();
}

Status Writer::Poison(Status s) {
  if (!s.ok() && error_.ok()) error_ = s;
  return s;
}

Status Writer::MaybeRollLocked() {
  if (file_->Size() < options_.segment_bytes) return Status::OK();
  return RollLocked();
}

Status Writer::SealLocked() {
  if (options_.sync_mode != SyncMode::kFsync) return file_->Flush();
  // The trimmed length must be durable before the next segment's
  // directory entry exists: a zero tail followed by a later segment is a
  // torn record mid-sequence, which recovery rejects as corruption.
  DECIBEL_RETURN_NOT_OK(file_->Trim());
  return file_->SyncData();
}

Status Writer::RollLocked() {
  DECIBEL_RETURN_NOT_OK(error_);
  DECIBEL_RETURN_NOT_OK(Poison(SealLocked()));
  file_.reset();
  ++segment_seq_;
  DECIBEL_RETURN_NOT_OK(Poison(OpenSegment()));
  // Everything appended so far lives in sealed (flushed, and in kFsync
  // fdatasynced) segments.
  flushed_lsn_ = next_lsn_ - 1;
  return Status::OK();
}

Result<uint64_t> Writer::Append(RecordType type, Slice body) {
  std::lock_guard<std::mutex> lock(mu_);
  DECIBEL_RETURN_NOT_OK(error_);
  DECIBEL_RETURN_NOT_OK(MaybeRollLocked());
  const uint64_t lsn = next_lsn_;
  frame_.clear();
  EncodeFrame(&frame_, lsn, type, body);
  const uint64_t end = file_->Size() + frame_.size();
  if (options_.sync_mode == SyncMode::kFsync && end > file_->zeroed_end()) {
    // Whole extensions, so a frame larger than one still fits.
    const uint64_t short_by = end - file_->zeroed_end();
    DECIBEL_RETURN_NOT_OK(Poison(file_->ExtendZeroed(
        (short_by + kZeroExtendBytes - 1) / kZeroExtendBytes *
        kZeroExtendBytes)));
  }
  DECIBEL_RETURN_NOT_OK(Poison(file_->Append(frame_)));
  ++next_lsn_;
  bytes_appended_ += frame_.size();
  return lsn;
}

Status Writer::Sync(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  DECIBEL_RETURN_NOT_OK(error_);
  switch (options_.sync_mode) {
    case SyncMode::kOff:
    case SyncMode::kNone:
      return Status::OK();
    case SyncMode::kFlush:
      if (flushed_lsn_ >= lsn) return Status::OK();
      DECIBEL_RETURN_NOT_OK(Poison(file_->Flush()));
      flushed_lsn_ = next_lsn_ - 1;
      return Status::OK();
    case SyncMode::kFsync:
      break;
  }

  // Pipelined group commit: wait while a started fdatasync covers lsn
  // (its end advances synced_lsn_ or poisons the writer); otherwise start
  // one now, beside any in flight, covering every record flushed so far.
  for (;;) {
    DECIBEL_RETURN_NOT_OK(error_);
    if (synced_lsn_ >= lsn) return Status::OK();
    if (sync_target_ < lsn && !sync_files_->free.empty()) break;
    sync_cv_.wait(lock);
  }
  DECIBEL_RETURN_NOT_OK(Poison(file_->Flush()));
  flushed_lsn_ = next_lsn_ - 1;
  const uint64_t target = flushed_lsn_;
  sync_target_ = target;
  const std::shared_ptr<SyncFiles> files = sync_files_;
  RandomWriteFile* h = files->free.back();
  files->free.pop_back();
  ++syncs_;
  syncs_in_flight_max_ = std::max(syncs_in_flight_max_, ++syncs_in_flight_);

  // The disk wait runs off the lock, so appenders and other syncs proceed.
  lock.unlock();
  Status s = h->Sync();
  lock.lock();

  files->free.push_back(h);
  --syncs_in_flight_;
  if (!s.ok()) {
    Poison(s);
  } else if (!error_.ok()) {
    // Another sync failed meanwhile; its records may be among ours.
    s = error_;
  } else if (target > synced_lsn_) {
    synced_lsn_ = target;
  }
  sync_cv_.notify_all();
  return s;
}

Result<uint64_t> Writer::Roll() {
  std::lock_guard<std::mutex> lock(mu_);
  DECIBEL_RETURN_NOT_OK(RollLocked());
  return segment_seq_;
}

uint64_t Writer::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

uint64_t Writer::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t Writer::segment_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_seq_;
}

uint64_t Writer::bytes_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_appended_;
}

uint64_t Writer::synced_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_lsn_;
}

uint64_t Writer::syncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

uint64_t Writer::syncs_in_flight_max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_in_flight_max_;
}

Status Writer::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return error_;
  Status s = error_.ok() ? Poison(SealLocked()) : error_;
  Status c = file_->Close();
  file_.reset();
  sync_files_.reset();
  return s.ok() ? c : s;
}

}  // namespace wal
}  // namespace decibel
