#include "wal/wal_writer.h"

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
  file_ = std::make_shared<WritableFile>(std::move(f));
  if (options_.sync_mode == SyncMode::kFsync) {
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
  // Seal without Close(): a group-commit leader may hold a shared_ptr to
  // this file and be fdatasyncing it concurrently (Close() sets fd_ = -1
  // and is not safe against that). The fd is closed by the last holder's
  // destructor, after any in-flight sync has finished with it.
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
  {
    std::lock_guard<std::mutex> lock(mu_);
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
  }

  // Group commit: the first waiter past this gate becomes the leader and
  // fdatasyncs every record flushed so far; later committers wait on the
  // cv and are covered by the leader's one fdatasync. A follower whose
  // lsn is still not covered when the leader finishes becomes the next
  // leader — and, if the leader failed, finds the writer poisoned.
  std::unique_lock<std::mutex> sl(sync_mu_);
  for (;;) {
    if (synced_lsn_ >= lsn) return Status::OK();
    if (!sync_active_) break;
    sync_cv_.wait(sl);
  }
  sync_active_ = true;
  sl.unlock();

  std::shared_ptr<WritableFile> f;
  uint64_t target = 0;
  Status s;
  {
    // Push the buffer into the OS under the append lock (cheap), then
    // fdatasync off it so appenders keep running during the disk wait.
    std::lock_guard<std::mutex> al(mu_);
    s = error_.ok() ? Poison(file_->Flush()) : error_;
    if (s.ok()) flushed_lsn_ = next_lsn_ - 1;
    target = flushed_lsn_;
    f = file_;
  }
  if (s.ok()) {
    s = f->SyncData();
    if (!s.ok()) {
      std::lock_guard<std::mutex> al(mu_);
      Poison(s);
    }
  }

  sl.lock();
  if (s.ok() && target > synced_lsn_) synced_lsn_ = target;
  sync_active_ = false;
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

Status Writer::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return error_;
  Status s = error_.ok() ? Poison(SealLocked()) : error_;
  Status c = file_->Close();
  file_.reset();
  return s.ok() ? c : s;
}

}  // namespace wal
}  // namespace decibel
