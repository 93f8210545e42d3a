#include "bitmap/commit_history.h"

#include <algorithm>
#include <iterator>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/rle.h"

namespace decibel {

namespace {

/// XOR of two byte strings, zero-extending the shorter one.
std::string XorBytes(const std::string& a, const std::string& b) {
  const size_t n = std::max(a.size(), b.size());
  std::string out(n, '\0');
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i];
  for (size_t i = 0; i < b.size(); ++i) out[i] ^= b[i];
  return out;
}

}  // namespace

Result<std::unique_ptr<CommitHistory>> CommitHistory::Create(
    const std::string& path) {
  std::unique_ptr<CommitHistory> h(new CommitHistory(path));
  DECIBEL_ASSIGN_OR_RETURN(WritableFile w, WritableFile::Open(path, true));
  h->writer_.emplace(std::move(w));
  return h;
}

Result<std::unique_ptr<CommitHistory>> CommitHistory::Open(
    const std::string& path) {
  std::unique_ptr<CommitHistory> h(new CommitHistory(path));
  DECIBEL_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  Slice input(contents);
  uint64_t pos = 0;
  while (!input.empty()) {
    const uint8_t layer = static_cast<uint8_t>(input[0]);
    input.RemovePrefix(1);
    uint64_t seq, nbits, len;
    if (!GetVarint64(&input, &seq) || !GetVarint64(&input, &nbits) ||
        !GetVarint64(&input, &len)) {
      return Status::Corruption("commit history: truncated record header in " +
                                path);
    }
    const uint64_t payload_offset =
        contents.size() - input.size();
    if (len + sizeof(uint32_t) > input.size()) {
      return Status::Corruption("commit history: truncated record in " + path);
    }
    Slice payload(input.data(), static_cast<size_t>(len));
    input.RemovePrefix(static_cast<size_t>(len));
    uint32_t crc;
    GetFixed32(&input, &crc);
    if (UnmaskCrc(crc) != Crc32(payload)) {
      return Status::Corruption("commit history: record checksum in " + path);
    }
    Entry e{seq, nbits, payload_offset, static_cast<uint32_t>(len)};
    if (layer == 0) {
      if (!h->layer0_.empty() && seq <= h->layer0_.back().seq) {
        return Status::Corruption("commit history: non-increasing seq in " +
                                  path);
      }
      h->layer0_.push_back(e);
    } else if (layer == 1) {
      h->layer1_.push_back(e);
    } else {
      return Status::Corruption("commit history: bad layer byte in " + path);
    }
    pos = payload_offset + len + sizeof(uint32_t);
  }
  (void)pos;
  DECIBEL_ASSIGN_OR_RETURN(WritableFile w, WritableFile::Open(path, false));
  h->writer_.emplace(std::move(w));
  h->writer_state_valid_ = false;  // last/composite bytes rebuilt lazily
  return h;
}

Status CommitHistory::WriteRecord(uint8_t layer, uint64_t seq, uint64_t nbits,
                                  Slice payload) {
  if (!writer_.has_value()) {
    // Handles were released (retired branch); reopen in append mode.
    DECIBEL_ASSIGN_OR_RETURN(WritableFile w, WritableFile::Open(path_, false));
    writer_.emplace(std::move(w));
    released_ = false;
  }
  std::string header;
  header.push_back(static_cast<char>(layer));
  PutVarint64(&header, seq);
  PutVarint64(&header, nbits);
  PutVarint64(&header, payload.size());

  const uint64_t payload_offset = writer_->Size() + header.size();
  DECIBEL_RETURN_NOT_OK(writer_->Append(header));
  DECIBEL_RETURN_NOT_OK(writer_->Append(payload));
  std::string crc;
  PutFixed32(&crc, MaskCrc(Crc32(payload)));
  DECIBEL_RETURN_NOT_OK(writer_->Append(crc));
  DECIBEL_RETURN_NOT_OK(writer_->Flush());

  Entry e{seq, nbits, payload_offset, static_cast<uint32_t>(payload.size())};
  if (layer == 0) {
    layer0_.push_back(e);
  } else {
    layer1_.push_back(e);
  }
  return Status::OK();
}

Status CommitHistory::AppendCommit(uint64_t seq, const Bitmap& bitmap) {
  std::lock_guard<std::mutex> guard(mu_);
  if (!layer0_.empty() && seq <= layer0_.back().seq) {
    return Status::InvalidArgument(
        "commit history: sequence numbers must increase");
  }
  if (!writer_state_valid_) {
    // First append after reopen: rebuild writer state from disk.
    if (!layer0_.empty()) {
      DECIBEL_RETURN_NOT_OK(ReplayTo(layer0_.size() - 1, &last_bytes_));
      const size_t boundary = layer1_.size() * kCompositeEvery;
      composite_base_.clear();
      if (boundary > 0) {
        DECIBEL_RETURN_NOT_OK(ReplayTo(boundary - 1, &composite_base_));
      }
    }
    writer_state_valid_ = true;
  }

  const std::string cur = bitmap.ToBytes();
  std::string payload;
  rle::Encode(XorBytes(last_bytes_, cur), &payload);
  DECIBEL_RETURN_NOT_OK(WriteRecord(0, seq, bitmap.size(), payload));
  last_bytes_ = cur;

  if (layer0_.size() % kCompositeEvery == 0) {
    std::string composite;
    rle::Encode(XorBytes(composite_base_, cur), &composite);
    DECIBEL_RETURN_NOT_OK(WriteRecord(1, seq, bitmap.size(), composite));
    composite_base_ = cur;
  }
  return Status::OK();
}

Status CommitHistory::ReadPayload(const Entry& e, std::string* out) const {
  if (!reader_.has_value()) {
    DECIBEL_ASSIGN_OR_RETURN(RandomAccessFile r,
                             RandomAccessFile::Open(path_));
    reader_.emplace(std::move(r));
  }
  return reader_->Read(e.offset, e.length, out);
}

Status CommitHistory::ReplayTo(size_t pos, std::string* bytes) const {
  bytes->clear();
  // Every delta decodes to the length of the longest bitmap it spans.
  uint64_t max_bytes = 0;
  for (size_t j = 0; j <= pos; ++j) {
    max_bytes = std::max(max_bytes, (layer0_[j].nbits + 7) / 8);
  }
  size_t covered = 0;
  const size_t k = kCompositeEvery;
  // Apply composite deltas while they end at or before the target.
  for (size_t i = 0; i < layer1_.size(); ++i) {
    const size_t end = (i + 1) * k;  // covers layer-0 records [0, end)
    if (end > pos + 1) break;
    std::string payload;
    DECIBEL_RETURN_NOT_OK(ReadPayload(layer1_[i], &payload));
    DECIBEL_RETURN_NOT_OK(rle::DecodeXorInto(payload, max_bytes, bytes));
    covered = end;
  }
  // Finish with single-commit deltas.
  for (size_t j = covered; j <= pos; ++j) {
    std::string payload;
    DECIBEL_RETURN_NOT_OK(ReadPayload(layer0_[j], &payload));
    DECIBEL_RETURN_NOT_OK(rle::DecodeXorInto(payload, max_bytes, bytes));
  }
  return Status::OK();
}

Result<Bitmap> CommitHistory::Checkout(uint64_t seq, uint64_t max_bits) const {
  std::lock_guard<std::mutex> guard(mu_);
  // Floor lookup: last entry with entry.seq <= seq.
  auto it = std::upper_bound(
      layer0_.begin(), layer0_.end(), seq,
      [](uint64_t s, const Entry& e) { return s < e.seq; });
  if (it == layer0_.begin()) {
    return Status::NotFound("commit history: no commit at or before seq " +
                            std::to_string(seq));
  }
  const size_t pos = static_cast<size_t>(it - layer0_.begin()) - 1;
  if (layer0_[pos].nbits > max_bits) {
    return Status::Corruption(
        "commit history: commit " + std::to_string(layer0_[pos].seq) +
        " claims " + std::to_string(layer0_[pos].nbits) + " bits, past the " +
        std::to_string(max_bits) + " records it can index, in " + path_);
  }
  std::string bytes;
  Status replayed = ReplayTo(pos, &bytes);
  // Released histories (rolled-away heads, retired branches) are read by
  // every merge that replays an old commit; caching their reader would
  // re-pin one fd per history and grow without bound under branch churn.
  // Keep the reader for the duration of one checkout only.
  if (released_) reader_.reset();
  DECIBEL_RETURN_NOT_OK(replayed);
  return Bitmap::FromBytes(bytes, layer0_[pos].nbits);
}

std::optional<uint64_t> CommitHistory::FloorCommit(uint64_t seq) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = std::upper_bound(
      layer0_.begin(), layer0_.end(), seq,
      [](uint64_t s, const Entry& e) { return s < e.seq; });
  if (it == layer0_.begin()) return std::nullopt;
  return std::prev(it)->seq;
}

uint64_t CommitHistory::SizeBytes() const {
  std::lock_guard<std::mutex> guard(mu_);
  return writer_.has_value() ? writer_->Size() : released_size_;
}

Status CommitHistory::Sync() {
  std::lock_guard<std::mutex> guard(mu_);
  if (writer_.has_value()) return writer_->Sync();
  if (!released_) return Status::OK();
  // Released handles: records were flushed when written, so a transient
  // descriptor suffices to make them durable.
  DECIBEL_ASSIGN_OR_RETURN(WritableFile f, WritableFile::Open(path_, false));
  return f.Sync();
}

Status CommitHistory::ReleaseFileHandles() {
  std::lock_guard<std::mutex> guard(mu_);
  if (writer_.has_value()) {
    released_size_ = writer_->Size();
    DECIBEL_RETURN_NOT_OK(writer_->Close());
    writer_.reset();
    released_ = true;
  }
  reader_.reset();
  return Status::OK();
}

}  // namespace decibel
