#include "storage/striped_heap.h"

#include <algorithm>

#include "common/coding.h"
#include "engine/scan_spec.h"

namespace decibel {

namespace {
constexpr uint32_t kManifestMagic = 0x53485053;  // "SPHS"
// v2 appends per-stripe checkpoint state (record count + tail CRC) so a
// tagged manifest can roll stripe files back to its exact moment. v3
// appends per-stripe zone-map stats blobs (HeapFile::EncodeStats) so a
// reopen can skip pages without rescanning them first.
constexpr uint32_t kManifestVersion = 3;
}  // namespace

StripedHeap::StripedHeap(std::string dir, uint32_t record_size,
                         const Options& options, BufferPool* pool)
    : dir_(std::move(dir)),
      record_size_(record_size),
      options_(options),
      pool_(pool) {}

std::string StripedHeap::StripePath(uint32_t stripe) const {
  return JoinPath(dir_, "heap." + std::to_string(stripe) + ".dbhf");
}

std::string StripedHeap::ManifestPath(const std::string& tag) const {
  return JoinPath(dir_, "heap.manifest." + tag);
}

Result<std::unique_ptr<StripedHeap>> StripedHeap::Create(
    const std::string& dir, uint32_t record_size, const Options& options,
    BufferPool* pool) {
  std::unique_ptr<StripedHeap> heap(
      new StripedHeap(dir, record_size, options, pool));
  const uint32_t stripes = options.stripes == 0 ? 1 : options.stripes;
  HeapFile::Options hopts;
  hopts.page_size = options.page_size;
  hopts.schema = options.schema;
  hopts.compress_pages = options.compress_pages;
  heap->stripes_.resize(stripes);
  for (uint32_t s = 0; s < stripes; ++s) {
    DECIBEL_ASSIGN_OR_RETURN(
        heap->stripes_[s].file,
        HeapFile::Create(heap->StripePath(s), record_size, hopts, pool));
  }
  heap->extent_records_ =
      options.extent_records != 0
          ? options.extent_records
          : std::max<uint64_t>(1, heap->stripes_[0].file->records_per_page());
  return heap;
}

Result<std::unique_ptr<StripedHeap>> StripedHeap::Open(
    const std::string& dir, const Options& options, BufferPool* pool,
    const std::string& checkpoint_tag) {
  std::unique_ptr<StripedHeap> heap(new StripedHeap(dir, 0, options, pool));
  DECIBEL_ASSIGN_OR_RETURN(
      std::string manifest,
      ReadFileToString(heap->ManifestPath(checkpoint_tag)));
  DECIBEL_RETURN_NOT_OK(heap->LoadManifest(Slice(manifest)));
  DECIBEL_RETURN_NOT_OK(heap->EnsureStats());
  return heap;
}

Status StripedHeap::EnsureStats() {
  for (StripeState& st : stripes_) {
    DECIBEL_RETURN_NOT_OK(st.file->EnsureStats());
  }
  return Status::OK();
}

Status StripedHeap::LoadManifest(Slice input) {
  uint32_t magic, version, stripes;
  uint64_t record_size, extent_records, extent_count;
  if (!GetVarint32(&input, &magic) || magic != kManifestMagic ||
      !GetVarint32(&input, &version)) {
    return Status::Corruption("striped heap: bad manifest header in " + dir_);
  }
  if (version != kManifestVersion) {
    // A well-formed manifest from another release: say so instead of the
    // misleading generic corruption (v2 added per-extent stripe layout,
    // v3 per-stripe zone-map stats).
    return Status::InvalidArgument(
        "striped heap: unsupported manifest format version " +
        std::to_string(version) + " (expected " +
        std::to_string(kManifestVersion) + ") in " + dir_);
  }
  if (!GetVarint64(&input, &record_size) || !GetVarint32(&input, &stripes) ||
      !GetVarint64(&input, &extent_records) ||
      !GetVarint64(&input, &extent_count)) {
    return Status::Corruption("striped heap: bad manifest header in " + dir_);
  }
  record_size_ = static_cast<uint32_t>(record_size);
  extent_records_ = extent_records;

  stripes_.resize(stripes == 0 ? 1 : stripes);

  uint64_t bound = 0;
  uint64_t total = 0;
  extents_.reserve(extent_count);
  for (uint64_t i = 0; i < extent_count; ++i) {
    Extent e;
    uint32_t stripe;
    if (!GetVarint64(&input, &e.base) || !GetVarint64(&input, &e.capacity) ||
        !GetVarint32(&input, &stripe) || !GetVarint64(&input, &e.local_base)) {
      return Status::Corruption("striped heap: truncated extent in " + dir_);
    }
    e.stripe = stripe;
    if (e.base != bound || stripe >= stripes_.size()) {
      return Status::Corruption("striped heap: inconsistent extent in " + dir_);
    }
    bound = e.base + e.capacity;
    extents_.push_back(e);
  }
  allocated_bound_.store(bound, std::memory_order_release);

  std::vector<HeapFile::CheckpointState> states(stripes_.size());
  for (size_t s = 0; s < stripes_.size(); ++s) {
    uint32_t crc;
    if (!GetVarint64(&input, &states[s].num_records) ||
        !GetVarint32(&input, &crc)) {
      return Status::Corruption("striped heap: truncated stripe state in " +
                                dir_);
    }
    states[s].tail_crc = crc;
  }

  // v3: per-stripe zone-map stats blobs. Parsed before the files open
  // (they follow the stripe states in the encoding), applied after.
  std::vector<Slice> stats_blobs(stripes_.size());
  for (size_t s = 0; s < stripes_.size(); ++s) {
    if (!GetLengthPrefixed(&input, &stats_blobs[s])) {
      return Status::Corruption("striped heap: truncated stats blob in " +
                                dir_);
    }
  }

  HeapFile::Options hopts;
  hopts.schema = options_.schema;
  hopts.compress_pages = options_.compress_pages;
  for (uint32_t s = 0; s < stripes_.size(); ++s) {
    DECIBEL_ASSIGN_OR_RETURN(
        stripes_[s].file,
        HeapFile::OpenAtCheckpoint(StripePath(s), hopts, pool_, states[s]));
    DECIBEL_RETURN_NOT_OK(stripes_[s].file->LoadStats(stats_blobs[s]));
  }

  // The last extent of each stripe may still be open: records appended
  // since its allocation (the files are now rolled back to the
  // checkpoint's counts) tell us how far it is filled.
  std::vector<bool> seen(stripes_.size(), false);
  for (auto it = extents_.rbegin(); it != extents_.rend(); ++it) {
    const uint64_t appended =
        stripes_[it->stripe].file->num_records() >= it->local_base
            ? stripes_[it->stripe].file->num_records() - it->local_base
            : 0;
    const uint64_t used = std::min(appended, it->capacity);
    total += used;
    if (!seen[it->stripe]) {
      seen[it->stripe] = true;
      StripeState& st = stripes_[it->stripe];
      st.next_global = it->base + used;
      st.remaining = it->capacity - used;
    }
  }
  num_records_.store(total, std::memory_order_relaxed);
  return Status::OK();
}

std::string StripedHeap::EncodeManifest() {
  std::string out;
  PutVarint32(&out, kManifestMagic);
  PutVarint32(&out, kManifestVersion);
  PutVarint64(&out, record_size_);
  PutVarint32(&out, static_cast<uint32_t>(stripes_.size()));
  PutVarint64(&out, extent_records_);
  {
    std::shared_lock<std::shared_mutex> table(table_mu_);
    PutVarint64(&out, extents_.size());
    for (const Extent& e : extents_) {
      PutVarint64(&out, e.base);
      PutVarint64(&out, e.capacity);
      PutVarint32(&out, e.stripe);
      PutVarint64(&out, e.local_base);
    }
  }
  for (const StripeState& st : stripes_) {
    const HeapFile::CheckpointState cs = st.file->GetCheckpointState();
    PutVarint64(&out, cs.num_records);
    PutVarint32(&out, cs.tail_crc);
  }
  for (const StripeState& st : stripes_) {
    std::string blob;
    st.file->EncodeStats(&blob);
    PutLengthPrefixed(&out, Slice(blob));
  }
  return out;
}

Status StripedHeap::Checkpoint(const std::string& tag, bool sync) {
  for (StripeState& st : stripes_) {
    DECIBEL_RETURN_NOT_OK(sync ? st.file->Sync() : st.file->Flush());
  }
  return AtomicWriteFile(ManifestPath(tag), EncodeManifest(), sync);
}

Status StripedHeap::RemoveCheckpoint(const std::string& tag) {
  return RemoveFile(ManifestPath(tag));
}

Status StripedHeap::AllocateExtent(uint32_t stripe, uint64_t needed) {
  StripeState& st = stripes_[stripe];
  Extent e;
  e.capacity = std::max(extent_records_, needed);
  e.stripe = stripe;
  e.local_base = st.file->num_records();
  {
    std::lock_guard<std::mutex> alloc(alloc_mu_);
    e.base = allocated_bound_.load(std::memory_order_relaxed);
    allocated_bound_.store(e.base + e.capacity, std::memory_order_release);
    std::unique_lock<std::shared_mutex> table(table_mu_);
    extents_.push_back(e);
  }
  st.next_global = e.base;
  st.remaining = e.capacity;
  return Status::OK();
}

Status StripedHeap::AppendBatch(uint32_t stripe, Slice records, uint64_t count,
                                RunList* runs) {
  if (stripe >= stripes_.size()) {
    return Status::InvalidArgument("striped heap: bad stripe");
  }
  if (records.size() != count * record_size_) {
    return Status::InvalidArgument("striped heap: batch size mismatch");
  }
  StripeState& st = stripes_[stripe];
  uint64_t done = 0;
  while (done < count) {
    if (st.remaining == 0) {
      DECIBEL_RETURN_NOT_OK(AllocateExtent(stripe, count - done));
    }
    const uint64_t take = std::min(st.remaining, count - done);
    const Slice chunk(records.data() + done * record_size_,
                      take * record_size_);
    DECIBEL_RETURN_NOT_OK(st.file->AppendBatch(chunk, take).status());
    if (runs != nullptr) runs->Add(st.next_global, take);
    st.next_global += take;
    st.remaining -= take;
    done += take;
  }
  num_records_.fetch_add(count, std::memory_order_relaxed);
  return Status::OK();
}

Result<uint64_t> StripedHeap::Append(uint32_t stripe, Slice record) {
  RunList runs;
  DECIBEL_RETURN_NOT_OK(AppendBatch(stripe, record, 1, &runs));
  return runs[0].base;
}

Status StripedHeap::Get(uint64_t global, std::string* out) {
  HeapFile* file = nullptr;
  uint64_t local = 0;
  {
    std::shared_lock<std::shared_mutex> table(table_mu_);
    auto it = std::upper_bound(
        extents_.begin(), extents_.end(), global,
        [](uint64_t g, const Extent& e) { return g < e.base; });
    if (it == extents_.begin()) {
      return Status::NotFound("striped heap: index out of range");
    }
    --it;
    if (global >= it->base + it->capacity) {
      return Status::NotFound("striped heap: index out of range");
    }
    file = stripes_[it->stripe].file.get();
    local = it->local_base + (global - it->base);
  }
  return file->Get(local, out);
}

uint64_t StripedHeap::SizeBytes() const {
  uint64_t total = 0;
  for (const StripeState& st : stripes_) total += st.file->SizeBytes();
  return total;
}

StripedHeap::Mapping StripedHeap::SnapshotMapping() const {
  Mapping m;
  m.files_.reserve(stripes_.size());
  for (const StripeState& st : stripes_) m.files_.push_back(st.file.get());
  std::shared_lock<std::shared_mutex> table(table_mu_);
  m.extents_ = extents_;
  return m;
}

bool StripedHeap::Mapping::Resolve(uint64_t global, HeapFile** file,
                                   uint64_t* local) const {
  if (extents_.empty()) return false;
  // Monotonic scans resolve from the hinted extent forward; random probes
  // fall back to binary search.
  size_t i = hint_;
  if (i >= extents_.size() || global < extents_[i].base) {
    auto it = std::upper_bound(
        extents_.begin(), extents_.end(), global,
        [](uint64_t g, const Extent& e) { return g < e.base; });
    if (it == extents_.begin()) return false;
    i = static_cast<size_t>(it - extents_.begin()) - 1;
  } else {
    while (i + 1 < extents_.size() && global >= extents_[i + 1].base) ++i;
  }
  const Extent& e = extents_[i];
  if (global < e.base || global >= e.base + e.capacity) return false;
  hint_ = i;
  *file = files_[e.stripe];
  *local = e.local_base + (global - e.base);
  return true;
}

bool StripedBitmapScanner::Next(RecordRef* out, uint64_t* index) {
  if (!status_.ok()) return false;
  for (;;) {
    const uint64_t next = bits_->NextSet(pos_);
    if (next == UINT64_MAX || next >= mapping_.bound()) return false;
    pos_ = next + 1;
    HeapFile* file = nullptr;
    uint64_t local = 0;
    if (!mapping_.Resolve(next, &file, &local)) {
      // A bit inside the snapshot's bound always has a covering extent.
      status_ = Status::Corruption("striped heap: set bit outside extents");
      return false;
    }
    if (local >= file->num_records()) {
      // Bit set for a record the snapshot's stripe file has not appended —
      // cannot happen for a bitmap materialized before the mapping.
      status_ = Status::Corruption("striped heap: set bit beyond stripe end");
      return false;
    }
    const uint64_t page_no = local / file->records_per_page();
    if (file != pinned_file_ || page_no != pinned_page_no_) {
      // The bitmap already resolved visibility, so a page the zone map
      // (or its compressed strips) rules out can be stepped over — every
      // bit landing on it is remembered as skipped until the scan moves
      // to another page.
      if (file == skip_file_ && page_no == skip_page_no_) continue;
      if (predicate_ != nullptr && !file->PageMayMatch(page_no, *predicate_)) {
        skip_file_ = file;
        skip_page_no_ = page_no;
        if (stats_ != nullptr) ++stats_->pages_skipped;
        continue;
      }
      bool no_matches = false;
      auto page = file->PinPageCounted(page_no, predicate_, &no_matches);
      if (!page.ok()) {
        status_ = page.status();
        return false;
      }
      if (stats_ != nullptr) stats_->bytes_read += page.value().io_bytes;
      if (no_matches) {
        skip_file_ = file;
        skip_page_no_ = page_no;
        if (stats_ != nullptr) ++stats_->pages_skipped;
        continue;
      }
      page_ = std::move(page).MoveValueUnsafe();
      pinned_file_ = file;
      pinned_page_no_ = page_no;
    }
    const uint64_t slot = local % file->records_per_page();
    *out = RecordRef(schema_, Slice(page_.payload + slot * file->record_size(),
                                    file->record_size()));
    if (index != nullptr) *index = next;
    return true;
  }
}

}  // namespace decibel
