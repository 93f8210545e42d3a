#include "storage/heap_file.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "engine/scan_spec.h"

namespace decibel {

namespace {

constexpr uint32_t kMagic = 0x44424846;  // "DBHF"
constexpr uint32_t kFormatVersion = 2;
constexpr uint64_t kFileHeaderSize = 64;
// count u32 | masked crc u32 | format u8 | pad u8*3 | stored_len u32
constexpr uint64_t kPageHeaderSize = 16;
constexpr uint32_t kStatsBlobVersion = 1;

void EncodePageHeader(char* dst, uint32_t count, uint32_t masked_crc,
                      columnar::PageFormat format, uint32_t stored_len) {
  EncodeFixed32(dst, count);
  EncodeFixed32(dst + 4, masked_crc);
  dst[8] = static_cast<char>(format);
  dst[9] = dst[10] = dst[11] = '\0';
  EncodeFixed32(dst + 12, stored_len);
}

Status ParseHeader(const RandomAccessFile& r, const std::string& path,
                   uint64_t* page_size, uint32_t* record_size) {
  if (r.Size() < kFileHeaderSize) {
    return Status::Corruption("heapfile: missing header in " + path);
  }
  std::string header;
  DECIBEL_RETURN_NOT_OK(r.Read(0, kFileHeaderSize, &header));
  if (DecodeFixed32(header.data()) != kMagic) {
    return Status::Corruption("heapfile: bad magic in " + path);
  }
  if (DecodeFixed32(header.data() + 4) != kFormatVersion) {
    return Status::Corruption("heapfile: unsupported version in " + path);
  }
  *page_size = DecodeFixed64(header.data() + 8);
  *record_size = DecodeFixed32(header.data() + 16);
  const uint32_t stored_crc = UnmaskCrc(DecodeFixed32(header.data() + 60));
  if (stored_crc != Crc32(Slice(header.data(), 60))) {
    return Status::Corruption("heapfile: header checksum mismatch in " + path);
  }
  return Status::OK();
}

}  // namespace

std::atomic<uint64_t> HeapFile::next_file_id_{1};

HeapFile::HeapFile(std::string path, uint32_t record_size,
                   const Options& options, BufferPool* pool)
    : path_(std::move(path)),
      record_size_(record_size),
      options_(options),
      pool_(pool),
      file_id_(next_file_id_.fetch_add(1)) {
  records_per_page_ = (options_.page_size - kPageHeaderSize) / record_size_;
  DECIBEL_CHECK(records_per_page_ > 0);
}

HeapFile::~HeapFile() {
  if (writer_.has_value() && tail_dirty_) {
    WriteTailPage().ok();  // best effort
  }
  if (pool_ != nullptr) pool_->EvictFile(file_id_);
}

Result<std::unique_ptr<HeapFile>> HeapFile::Create(const std::string& path,
                                                   uint32_t record_size,
                                                   const Options& options,
                                                   BufferPool* pool) {
  if (record_size == 0 ||
      record_size > options.page_size - kPageHeaderSize) {
    return Status::InvalidArgument("heapfile: record size " +
                                   std::to_string(record_size) +
                                   " does not fit a page");
  }
  if (FileExists(path)) {
    // Stale leftover from a crash after the last checkpoint: the caller's
    // metadata has no record of this file, so its contents were never
    // acknowledged. Remove it and start fresh (WAL replay refills it).
    DECIBEL_RETURN_NOT_OK(RemoveFile(path));
  }
  std::unique_ptr<HeapFile> file(
      new HeapFile(path, record_size, options, pool));
  DECIBEL_ASSIGN_OR_RETURN(RandomWriteFile w, RandomWriteFile::Open(path));
  file->writer_.emplace(std::move(w));
  DECIBEL_RETURN_NOT_OK(file->WriteHeader());
  return file;
}

Result<std::unique_ptr<HeapFile>> HeapFile::Open(const std::string& path,
                                                 const Options& options,
                                                 BufferPool* pool) {
  DECIBEL_ASSIGN_OR_RETURN(RandomAccessFile r, RandomAccessFile::Open(path));
  uint64_t page_size = 0;
  uint32_t record_size = 0;
  DECIBEL_RETURN_NOT_OK(ParseHeader(r, path, &page_size, &record_size));
  // Stats walk records with the schema's offsets; a caller schema whose
  // record width disagrees with the file's would misread every page.
  if (options.schema != nullptr &&
      options.schema->record_size() != record_size) {
    return Status::InvalidArgument(
        "heapfile: schema record size " +
        std::to_string(options.schema->record_size()) +
        " does not match file record size " + std::to_string(record_size) +
        " in " + path);
  }

  Options opts = options;
  opts.page_size = page_size;
  std::unique_ptr<HeapFile> file(
      new HeapFile(path, record_size, opts, pool));

  // Every page but the last fills a whole page_size slot; the last one may
  // be short (a partial tail is stored as header + used bytes).
  const uint64_t data_bytes = r.Size() - kFileHeaderSize;
  const uint64_t whole_slots = data_bytes / page_size;
  const uint64_t short_slot = data_bytes % page_size;
  const uint64_t num_pages = whole_slots + (short_slot > 0 ? 1 : 0);
  if (short_slot > 0 && short_slot < kPageHeaderSize) {
    return Status::Corruption("heapfile: truncated page header in " + path);
  }

  if (num_pages > 0) {
    // Inspect the last page: partial -> becomes the in-memory tail.
    const uint64_t last_len = short_slot > 0 ? short_slot : page_size;
    std::string last;
    DECIBEL_RETURN_NOT_OK(
        r.Read(kFileHeaderSize + (num_pages - 1) * page_size, last_len,
               &last));
    const uint32_t count = DecodeFixed32(last.data());
    if (count > file->records_per_page_) {
      return Status::Corruption("heapfile: bad page count in " + path);
    }
    const auto format_byte = static_cast<uint8_t>(last[8]);
    if (format_byte > static_cast<uint8_t>(columnar::PageFormat::kLz)) {
      return Status::Corruption("heapfile: bad page format in " + path);
    }
    const auto format = static_cast<columnar::PageFormat>(format_byte);
    const uint32_t stored_len = DecodeFixed32(last.data() + 12);
    if (stored_len > page_size - kPageHeaderSize ||
        (format == columnar::PageFormat::kRaw &&
         stored_len != count * record_size)) {
      return Status::Corruption("heapfile: bad page length in " + path);
    }
    if (kPageHeaderSize + stored_len > last_len) {
      return Status::Corruption(
          "heapfile: last page cut inside its stored bytes in " + path);
    }
    const uint32_t crc = UnmaskCrc(DecodeFixed32(last.data() + 4));
    if (crc != Crc32(Slice(last.data() + kPageHeaderSize, stored_len))) {
      return Status::Corruption("heapfile: tail page checksum in " + path);
    }
    if (count < file->records_per_page_) {
      if (format != columnar::PageFormat::kRaw) {
        // Partial pages are the rewritten-in-place tail; only full-batch
        // sealed pages compress. A compressed partial page is corruption.
        return Status::Corruption("heapfile: compressed partial page in " +
                                  path);
      }
      file->sealed_pages_ = num_pages - 1;
      file->tail_.assign(last.data() + kPageHeaderSize,
                         count * record_size);
      file->tail_count_ = count;
    } else if (short_slot > 0) {
      // Full pages are read back by whole slot; a short one was cut.
      return Status::Corruption("heapfile: full page in a short slot in " +
                                path);
    } else {
      file->sealed_pages_ = num_pages;
    }
    file->num_records_ =
        file->sealed_pages_ * file->records_per_page_ + file->tail_count_;
  }

  {
    std::lock_guard<std::mutex> lock(file->reader_mu_);
    file->reader_.emplace(std::move(r));
  }
  DECIBEL_ASSIGN_OR_RETURN(RandomWriteFile w, RandomWriteFile::Open(path));
  file->writer_.emplace(std::move(w));
  return file;
}

Result<std::unique_ptr<HeapFile>> HeapFile::OpenAtCheckpoint(
    const std::string& path, const Options& options, BufferPool* pool,
    const CheckpointState& state) {
  uint64_t page_size = 0;
  uint32_t record_size = 0;
  {
    DECIBEL_ASSIGN_OR_RETURN(RandomAccessFile r, RandomAccessFile::Open(path));
    DECIBEL_RETURN_NOT_OK(ParseHeader(r, path, &page_size, &record_size));

    const uint64_t records_per_page =
        (page_size - kPageHeaderSize) / record_size;
    const uint64_t sealed = state.num_records / records_per_page;
    const uint32_t tail_count =
        static_cast<uint32_t>(state.num_records % records_per_page);
    // The checkpointed tail is at least header + its tail_count records;
    // whatever the slot holds beyond that was appended afterwards.
    const uint64_t tail_bytes =
        tail_count > 0 ? kPageHeaderSize +
                             static_cast<uint64_t>(tail_count) * record_size
                       : 0;
    const uint64_t need = kFileHeaderSize + sealed * page_size + tail_bytes;
    if (r.Size() < need) {
      // Every checkpointed page was written and synced before the
      // checkpoint acknowledged it; a shorter file means the checkpoint
      // metadata does not belong to this file.
      return Status::Corruption("heapfile: " + path + " shorter than its " +
                                "checkpoint (" + std::to_string(r.Size()) +
                                " < " + std::to_string(need) + " bytes)");
    }
    std::string tail;
    if (tail_count > 0) {
      // The tail page may have been rewritten in place (and torn) after
      // the checkpoint. Ignore its on-disk count/CRC; the checkpoint's
      // own CRC over the first tail_count records is the authority.
      DECIBEL_RETURN_NOT_OK(
          r.Read(kFileHeaderSize + sealed * page_size, tail_bytes, &tail));
      const Slice prefix(tail.data() + kPageHeaderSize,
                         tail_bytes - kPageHeaderSize);
      if (Crc32(prefix) != state.tail_crc) {
        return Status::Corruption("heapfile: tail page torn past recovery in " +
                                  path);
      }
    }

    // Roll the file back to the checkpoint: drop post-checkpoint pages and
    // bytes, and rewrite the tail page's header to match the surviving
    // prefix (the slot stays header + checkpointed bytes, unpadded).
    DECIBEL_ASSIGN_OR_RETURN(RandomWriteFile w, RandomWriteFile::Open(path));
    DECIBEL_RETURN_NOT_OK(w.Truncate(need));
    if (tail_count > 0) {
      const Slice prefix(tail.data() + kPageHeaderSize,
                         tail_bytes - kPageHeaderSize);
      EncodePageHeader(tail.data(), tail_count, MaskCrc(Crc32(prefix)),
                       columnar::PageFormat::kRaw,
                       static_cast<uint32_t>(prefix.size()));
      DECIBEL_RETURN_NOT_OK(
          w.WriteAt(kFileHeaderSize + sealed * page_size, tail));
    }
    DECIBEL_RETURN_NOT_OK(w.Sync());
    DECIBEL_RETURN_NOT_OK(w.Close());
  }
  // The file now satisfies the ordinary Open invariants.
  DECIBEL_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> file,
                           Open(path, options, pool));
  if (file->num_records() != state.num_records) {
    return Status::Corruption("heapfile: " + path + " recovered " +
                              std::to_string(file->num_records()) +
                              " records, checkpoint expects " +
                              std::to_string(state.num_records));
  }
  return file;
}

Status HeapFile::WriteHeader() {
  std::string header(kFileHeaderSize, '\0');
  EncodeFixed32(header.data(), kMagic);
  EncodeFixed32(header.data() + 4, kFormatVersion);
  EncodeFixed64(header.data() + 8, options_.page_size);
  EncodeFixed32(header.data() + 16, record_size_);
  EncodeFixed32(header.data() + 60, MaskCrc(Crc32(Slice(header.data(), 60))));
  return writer_->WriteAt(0, header);
}

uint64_t HeapFile::PageOffset(uint64_t page_no) const {
  return kFileHeaderSize + page_no * options_.page_size;
}

Result<uint64_t> HeapFile::Append(Slice record) {
  if (sealed_) {
    return Status::InvalidArgument("heapfile: append to sealed file " + path_);
  }
  if (record.size() != record_size_) {
    return Status::InvalidArgument("heapfile: record size mismatch");
  }
  uint64_t index;
  bool page_full = false;
  {
    std::lock_guard<std::mutex> lock(tail_mu_);
    index = num_records_.load();
    tail_.append(record.data(), record.size());
    ++tail_count_;
    tail_dirty_ = true;
    page_full = tail_count_ == records_per_page_;
  }
  FoldTailRecords(record.data(), 1);
  num_records_.fetch_add(1);
  if (page_full) {
    DECIBEL_RETURN_NOT_OK(SealTailPage());
  }
  return index;
}

void HeapFile::FoldTailRecords(const char* records, uint64_t count) {
  if (!stats_enabled()) return;
  std::lock_guard<std::mutex> lock(stats_mu_);
  tail_zone_.UpdateBatch(*options_.schema, records, count);
  file_zone_.UpdateBatch(*options_.schema, records, count);
}

void HeapFile::AppendPageStatsLocked(PageStats ps) {
  // page_stats_[i] describes page i, so the entries stay a prefix of the
  // sealed pages. A file reopened without (all of) its persisted stats
  // skips pages sealed before EnsureStats catches up; those read their
  // whole slot until then.
  if (page_stats_.size() == sealed_pages_) {
    page_stats_.push_back(std::move(ps));
  }
}

Status HeapFile::SealTailPage() {
  // Pages sealed from the tail stay kRaw: the write below must preserve
  // the byte prefix a checkpoint may have CRC'd (see OpenAtCheckpoint).
  DECIBEL_RETURN_NOT_OK(WriteTailPage());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    PageStats ps;
    ps.format = columnar::PageFormat::kRaw;
    ps.stored_bytes =
        static_cast<uint32_t>(records_per_page_ * record_size_);
    if (stats_enabled()) {
      ps.zone = std::move(tail_zone_);
      tail_zone_ = columnar::ZoneMap(options_.schema->num_columns());
    }
    AppendPageStatsLocked(std::move(ps));
  }
  std::lock_guard<std::mutex> lock(tail_mu_);
  tail_.clear();
  tail_count_ = 0;
  tail_dirty_ = false;
  ++sealed_pages_;
  return Status::OK();
}

Result<uint64_t> HeapFile::AppendBatch(Slice records, uint64_t count) {
  if (sealed_) {
    return Status::InvalidArgument("heapfile: append to sealed file " + path_);
  }
  if (records.size() != count * static_cast<uint64_t>(record_size_)) {
    return Status::InvalidArgument("heapfile: batch size mismatch");
  }
  const uint64_t first = num_records_.load();
  uint64_t offset = 0;
  uint64_t remaining = count;
  std::string page;  // reused across every full page this batch seals
  while (remaining > 0) {
    // Full pages are built straight from the caller's buffer — no staging
    // through tail_, one page buffer for the whole batch. The page is on
    // disk before sealed_pages_ advances (under tail_mu_, like
    // SealTailPage) and num_records_ advances last, so a concurrent
    // reader never resolves these records to the (empty) tail. This is
    // also the only path that compresses: the slot it writes is past
    // every record any checkpoint has referenced, so rewriting semantics
    // never apply to it.
    if (tail_count_ == 0 && remaining >= records_per_page_) {
      const uint64_t payload_bytes = records_per_page_ * record_size_;
      const char* payload = records.data() + offset;

      columnar::ZoneMap page_zone;
      if (stats_enabled()) {
        page_zone = columnar::ZoneMap(options_.schema->num_columns());
        page_zone.UpdateBatch(*options_.schema, payload, records_per_page_);
      }
      auto format = columnar::PageFormat::kRaw;
      std::string encoded;
      if (options_.compress_pages && stats_enabled()) {
        format = columnar::EncodePage(
            *options_.schema, payload,
            static_cast<uint32_t>(records_per_page_), &encoded);
        if (format != columnar::PageFormat::kRaw &&
            encoded.size() > options_.page_size - kPageHeaderSize) {
          format = columnar::PageFormat::kRaw;  // never outgrow the slot
        }
      }
      const Slice stored = format == columnar::PageFormat::kRaw
                               ? Slice(payload, payload_bytes)
                               : Slice(encoded);
      page.resize(kPageHeaderSize);
      EncodePageHeader(page.data(), static_cast<uint32_t>(records_per_page_),
                       MaskCrc(Crc32(stored)), format,
                       static_cast<uint32_t>(stored.size()));
      page.append(stored.data(), stored.size());
      page.resize(options_.page_size, '\0');
      DECIBEL_RETURN_NOT_OK(
          writer_->WriteAt(PageOffset(sealed_pages_), page));
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        PageStats ps;
        ps.format = format;
        ps.stored_bytes = static_cast<uint32_t>(stored.size());
        if (stats_enabled()) {
          ps.zone = std::move(page_zone);
          file_zone_.Merge(ps.zone);
        }
        AppendPageStatsLocked(std::move(ps));
      }
      {
        std::lock_guard<std::mutex> lock(tail_mu_);
        ++sealed_pages_;
      }
      num_records_.fetch_add(records_per_page_);
      offset += payload_bytes;
      remaining -= records_per_page_;
      continue;
    }
    uint64_t take;
    bool page_full;
    {
      std::lock_guard<std::mutex> lock(tail_mu_);
      const uint64_t space = records_per_page_ - tail_count_;
      take = std::min(space, remaining);
      tail_.append(records.data() + offset, take * record_size_);
      tail_count_ += static_cast<uint32_t>(take);
      tail_dirty_ = true;
      page_full = tail_count_ == records_per_page_;
    }
    FoldTailRecords(records.data() + offset, take);
    num_records_.fetch_add(take);
    offset += take * record_size_;
    remaining -= take;
    if (page_full) {
      DECIBEL_RETURN_NOT_OK(SealTailPage());
    }
  }
  return first;
}

Status HeapFile::WriteTailPage() {
  // A full page keeps its whole slot, so PageOffset stays arithmetic; a
  // partial one is stored as header + used bytes. Only the file's last
  // slot is ever partial, and a later rewrite of it only grows.
  std::string page;
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(tail_mu_);
    full = tail_count_ == records_per_page_;
    page.reserve(full ? options_.page_size : kPageHeaderSize + tail_.size());
    page.resize(kPageHeaderSize);
    EncodePageHeader(page.data(), tail_count_, MaskCrc(Crc32(Slice(tail_))),
                     columnar::PageFormat::kRaw,
                     static_cast<uint32_t>(tail_.size()));
    page.append(tail_);
  }
  if (full) page.resize(options_.page_size, '\0');
  return writer_->WriteAt(PageOffset(sealed_pages_), page);
}

Status HeapFile::Flush() {
  if (tail_dirty_) {
    DECIBEL_RETURN_NOT_OK(WriteTailPage());
    tail_dirty_ = false;
  }
  return Status::OK();
}

Status HeapFile::Sync() {
  DECIBEL_RETURN_NOT_OK(Flush());
  if (writer_.has_value()) return writer_->Sync();
  // Sealed file whose write handle was released: everything is on disk,
  // so a transient descriptor is enough to make it durable.
  DECIBEL_ASSIGN_OR_RETURN(RandomWriteFile f, RandomWriteFile::Open(path_));
  return f.Sync();
}

HeapFile::CheckpointState HeapFile::GetCheckpointState() const {
  std::lock_guard<std::mutex> lock(tail_mu_);
  CheckpointState s;
  s.num_records = sealed_pages_ * records_per_page_ + tail_count_;
  s.tail_crc = tail_count_ > 0 ? Crc32(Slice(tail_)) : 0;
  return s;
}

Status HeapFile::Seal() {
  DECIBEL_RETURN_NOT_OK(Flush());
  sealed_ = true;
  // Sealed files never append again; holding the write descriptor open
  // would leak one fd per segment under branch churn (the agentic
  // workload forks and retires branches by the thousands). Sync() reopens
  // transiently when a checkpoint needs to make the file durable.
  writer_.reset();
  return Status::OK();
}

Status HeapFile::ReleaseFileHandles() {
  DECIBEL_RETURN_NOT_OK(Seal());
  std::lock_guard<std::mutex> lock(reader_mu_);
  reader_.reset();
  return Status::OK();
}

bool HeapFile::SnapshotTailIfCurrent(uint64_t page_no, std::string* out,
                                     uint32_t* count) const {
  std::lock_guard<std::mutex> lock(tail_mu_);
  if (page_no < sealed_pages_) return false;
  *out = tail_;
  *count = tail_count_;
  return true;
}

Status HeapFile::ReadStoredPage(uint64_t page_no, std::string* page,
                                PageHeader* header) const {
  // The page's stats know its stored length, so header and stored bytes
  // arrive in one pread. A page with no stats yet (its file was opened
  // without persisted stats and EnsureStats has not reached it) reads its
  // whole slot instead: only a partial tail's slot is short, and partial
  // tails are served from memory, never read through here.
  bool have_stats = false;
  PageHeader expected;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (page_no < page_stats_.size()) {
      have_stats = true;
      expected.format = page_stats_[page_no].format;
      expected.stored_len = page_stats_[page_no].stored_bytes;
    }
  }
  const uint64_t max_stored = options_.page_size - kPageHeaderSize;
  if (have_stats && expected.stored_len > max_stored) {
    return Status::Corruption("heapfile: page " + std::to_string(page_no) +
                              " stats overrun the page in " + path_);
  }
  const uint64_t len =
      have_stats ? kPageHeaderSize + expected.stored_len : options_.page_size;
  {
    std::lock_guard<std::mutex> lock(reader_mu_);
    if (!reader_.has_value()) {
      // The writer buffers only the tail; sealed pages are on disk already.
      DECIBEL_ASSIGN_OR_RETURN(RandomAccessFile r,
                               RandomAccessFile::Open(path_));
      reader_.emplace(std::move(r));
    }
  }
  page->reserve(options_.page_size);  // the decoded page never reallocates
  page->resize(len);
  DECIBEL_RETURN_NOT_OK(reader_->Read(PageOffset(page_no), len, page->data()));

  const char* head = page->data();
  header->count = DecodeFixed32(head);
  if (header->count > records_per_page_) {
    return Status::Corruption("heapfile: bad page count in " + path_);
  }
  const auto format_byte = static_cast<uint8_t>(head[8]);
  if (format_byte > static_cast<uint8_t>(columnar::PageFormat::kLz)) {
    return Status::Corruption("heapfile: bad page format in " + path_);
  }
  header->format = static_cast<columnar::PageFormat>(format_byte);
  header->stored_len = DecodeFixed32(head + 12);
  if (header->stored_len > max_stored ||
      (header->format == columnar::PageFormat::kRaw &&
       header->stored_len != header->count * record_size_)) {
    return Status::Corruption("heapfile: bad page length in " + path_);
  }
  if (have_stats && (header->stored_len != expected.stored_len ||
                     header->format != expected.format)) {
    return Status::Corruption("heapfile: page " + std::to_string(page_no) +
                              " header disagrees with its stats in " + path_);
  }
  const uint32_t crc = UnmaskCrc(DecodeFixed32(head + 4));
  if (crc != Crc32(Slice(head + kPageHeaderSize, header->stored_len))) {
    return Status::Corruption("heapfile: page " + std::to_string(page_no) +
                              " checksum mismatch in " + path_);
  }
  return Status::OK();
}

Status HeapFile::DecodeStoredPage(const PageHeader& header,
                                  std::string* page) const {
  if (header.format == columnar::PageFormat::kRaw) {
    // Drop whatever a whole-slot read brought in past the payload, then
    // zero-pad; a known-length read only pads.
    page->resize(kPageHeaderSize + header.stored_len);
    page->resize(options_.page_size, '\0');
    return Status::OK();
  }
  if (!stats_enabled()) {
    return Status::Corruption("heapfile: compressed page without schema in " +
                              path_);
  }
  const std::string stored = std::move(*page);
  page->clear();
  page->reserve(options_.page_size);
  page->assign(stored.data(), kPageHeaderSize);
  DECIBEL_RETURN_NOT_OK(columnar::DecodePage(
      *options_.schema, header.format,
      Slice(stored.data() + kPageHeaderSize, header.stored_len), header.count,
      page));
  page->resize(options_.page_size, '\0');
  return Status::OK();
}

Status HeapFile::ReadPageFromDisk(uint64_t page_no, std::string* out) {
  PageHeader header;
  DECIBEL_RETURN_NOT_OK(ReadStoredPage(page_no, out, &header));
  return DecodeStoredPage(header, out);
}

Status HeapFile::Get(uint64_t index, std::string* out) {
  if (index >= num_records_.load()) {
    return Status::OutOfRange("heapfile: record " + std::to_string(index) +
                              " out of range in " + path_);
  }
  const uint64_t page_no = index / records_per_page_;
  const uint64_t slot = index % records_per_page_;
  {
    // Decide tail-vs-sealed and read under one lock: a racing writer may
    // seal this very page, and records written through AppendBatch's
    // full-page path never pass through tail_ at all.
    std::lock_guard<std::mutex> lock(tail_mu_);
    if (page_no >= sealed_pages_) {
      if (slot >= tail_count_) {
        return Status::OutOfRange("heapfile: record " +
                                  std::to_string(index) +
                                  " beyond tail in " + path_);
      }
      out->assign(tail_.data() + slot * record_size_, record_size_);
      return Status::OK();
    }
  }
  DECIBEL_ASSIGN_OR_RETURN(PageRef page,
                           pool_->GetPage(file_id_, page_no, this));
  out->assign(page->data() + kPageHeaderSize + slot * record_size_,
              record_size_);
  return Status::OK();
}

Result<HeapFile::PinnedPage> HeapFile::PinPage(uint64_t page_no) {
  PinnedPage out;
  uint32_t count;
  if (SnapshotTailIfCurrent(page_no, &out.tail, &count)) {
    out.payload = out.tail.data();
    out.count = count;
    out.io_bytes = out.tail.size();
    return out;
  }
  DECIBEL_ASSIGN_OR_RETURN(out.pin,
                           pool_->GetPage(file_id_, page_no, this));
  out.payload = out.pin->data() + kPageHeaderSize;
  out.count = DecodeFixed32(out.pin->data());
  out.io_bytes = kPageHeaderSize + DecodeFixed32(out.pin->data() + 12);
  return out;
}

Result<HeapFile::PinnedPage> HeapFile::PinPageCounted(
    uint64_t page_no, const PreparedPredicate* predicate, bool* no_matches) {
  *no_matches = false;
  PinnedPage out;
  uint32_t count;
  if (SnapshotTailIfCurrent(page_no, &out.tail, &count)) {
    out.payload = out.tail.data();
    out.count = count;
    out.io_bytes = out.tail.size();
    return out;
  }
  if (PageRef cached = pool_->Peek(file_id_, page_no)) {
    out.pin = std::move(cached);
    out.payload = out.pin->data() + kPageHeaderSize;
    out.count = DecodeFixed32(out.pin->data());
    out.io_bytes = kPageHeaderSize + DecodeFixed32(out.pin->data() + 12);
    return out;
  }
  PageHeader header;
  auto page = std::make_shared<std::string>();
  DECIBEL_RETURN_NOT_OK(ReadStoredPage(page_no, page.get(), &header));
  out.io_bytes = kPageHeaderSize + header.stored_len;
  if (predicate != nullptr && stats_enabled() &&
      header.format == columnar::PageFormat::kColumnar &&
      !predicate->raw_comparisons().empty()) {
    // Try to prove the page empty of matches from the compressed strips:
    // one comparison per RLE run / dictionary code, no decode, and the
    // buffer pool stays unpolluted by a page nobody will read.
    bool exact = false;
    const uint64_t matches = columnar::CountMatchesCompressed(
        *options_.schema, header.format,
        Slice(page->data() + kPageHeaderSize, header.stored_len),
        header.count, predicate->raw_comparisons(), &exact);
    if (exact && matches == 0) {
      *no_matches = true;
      out.count = header.count;
      return out;  // payload-less: caller must skip, not read
    }
  }
  DECIBEL_RETURN_NOT_OK(DecodeStoredPage(header, page.get()));
  PageRef ref = std::move(page);
  pool_->Insert(file_id_, page_no, ref);
  out.pin = std::move(ref);
  out.payload = out.pin->data() + kPageHeaderSize;
  out.count = header.count;
  return out;
}

uint64_t HeapFile::SizeBytes() const {
  std::lock_guard<std::mutex> lock(tail_mu_);
  const uint64_t tail_bytes =
      tail_count_ > 0 ? kPageHeaderSize + tail_.size() : 0;
  return kFileHeaderSize + sealed_pages_ * options_.page_size + tail_bytes;
}

// ---------------------------------------------------------------- zone maps

bool HeapFile::PageMayMatch(uint64_t page_no,
                            const PreparedPredicate& predicate) const {
  if (!stats_enabled()) return true;
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (page_no < page_stats_.size()) {
    return predicate.MayMatch(page_stats_[page_no].zone);
  }
  return predicate.MayMatch(tail_zone_);
}

bool HeapFile::FileMayMatch(const PreparedPredicate& predicate) const {
  if (!stats_enabled()) return true;
  std::lock_guard<std::mutex> lock(stats_mu_);
  return predicate.MayMatch(file_zone_);
}

void HeapFile::SnapshotPageStats(std::vector<PageStats>* pages,
                                 columnar::ZoneMap* tail_zone) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  *pages = page_stats_;
  *tail_zone = tail_zone_;
}

columnar::ZoneMap HeapFile::FileZone() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return file_zone_;
}

void HeapFile::EncodeStats(std::string* dst) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  PutVarint32(dst, kStatsBlobVersion);
  PutVarint64(dst, page_stats_.size());
  for (const PageStats& ps : page_stats_) {
    dst->push_back(static_cast<char>(ps.format));
    PutVarint32(dst, ps.stored_bytes);
    ps.zone.EncodeTo(dst);
  }
}

Status HeapFile::LoadStats(Slice input) {
  uint32_t version;
  if (!GetVarint32(&input, &version) || version != kStatsBlobVersion) {
    return Status::Corruption("heapfile: bad stats blob in " + path_);
  }
  uint64_t n;
  if (!GetVarint64(&input, &n)) {
    return Status::Corruption("heapfile: bad stats blob in " + path_);
  }
  uint64_t sealed;
  {
    std::lock_guard<std::mutex> lock(tail_mu_);
    sealed = sealed_pages_;
  }
  std::vector<PageStats> loaded;
  loaded.reserve(std::min(n, sealed));
  for (uint64_t i = 0; i < n; ++i) {
    if (input.empty()) {
      return Status::Corruption("heapfile: truncated stats blob in " + path_);
    }
    const auto format_byte = static_cast<uint8_t>(input[0]);
    if (format_byte > static_cast<uint8_t>(columnar::PageFormat::kLz)) {
      return Status::Corruption("heapfile: bad stats format in " + path_);
    }
    input.RemovePrefix(1);
    PageStats ps;
    ps.format = static_cast<columnar::PageFormat>(format_byte);
    if (!GetVarint32(&input, &ps.stored_bytes)) {
      return Status::Corruption("heapfile: truncated stats blob in " + path_);
    }
    DECIBEL_ASSIGN_OR_RETURN(ps.zone, columnar::ZoneMap::DecodeFrom(&input));
    // Entries past the current sealed range describe pages a recovery
    // rolled back; EnsureStats would recompute them from thin air, so
    // drop them here.
    if (i < sealed) loaded.push_back(std::move(ps));
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  page_stats_ = std::move(loaded);
  return Status::OK();
}

Status HeapFile::EnsureStats() {
  if (!stats_enabled()) return Status::OK();
  const Schema& schema = *options_.schema;
  uint64_t sealed;
  {
    std::lock_guard<std::mutex> lock(tail_mu_);
    sealed = sealed_pages_;
  }
  uint64_t have;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    have = page_stats_.size();
  }
  // Rebuild stats for sealed pages the persisted blob didn't cover (an
  // un-checkpointed suffix, or a file opened without any blob at all).
  for (uint64_t page_no = have; page_no < sealed; ++page_no) {
    DECIBEL_ASSIGN_OR_RETURN(PinnedPage page, PinPage(page_no));
    // A page claiming more records than fit under this schema is either
    // a file written with a different record width or a corrupt header;
    // walking it would read past the payload.
    if (page.count > records_per_page_) {
      return Status::Corruption(
          "heapfile: page record count exceeds schema capacity in " + path_);
    }
    PageStats ps;
    ps.zone = columnar::ZoneMap(schema.num_columns());
    ps.zone.UpdateBatch(schema, page.payload, page.count);
    // Normalized pages carry the on-disk format/stored_len through their
    // header even after decoding.
    ps.format = static_cast<columnar::PageFormat>(
        static_cast<uint8_t>((*page.pin)[8]));
    ps.stored_bytes = DecodeFixed32(page.pin->data() + 12);
    std::lock_guard<std::mutex> lock(stats_mu_);
    page_stats_.push_back(std::move(ps));
  }
  // The tail zone always rebuilds from the live tail; the file zone is
  // the union of everything.
  std::lock_guard<std::mutex> tail_lock(tail_mu_);
  std::lock_guard<std::mutex> lock(stats_mu_);
  tail_zone_ = columnar::ZoneMap(schema.num_columns());
  tail_zone_.UpdateBatch(schema, tail_.data(), tail_count_);
  file_zone_ = columnar::ZoneMap(schema.num_columns());
  for (const PageStats& ps : page_stats_) file_zone_.Merge(ps.zone);
  file_zone_.Merge(tail_zone_);
  return Status::OK();
}

// ------------------------------------------------------------------ Scanner

HeapFile::Scanner::Scanner(HeapFile* file, uint64_t begin, uint64_t end)
    : file_(file), next_(begin), end_(std::min(end, file->num_records())) {}

bool HeapFile::Scanner::Next(Slice* record, uint64_t* index) {
  if (!status_.ok() || next_ >= end_) return false;
  const uint64_t page_no = next_ / file_->records_per_page_;
  const uint64_t slot = next_ % file_->records_per_page_;

  if (pinned_page_no_ != page_no) {
    // The tail-vs-sealed decision and the tail snapshot happen atomically
    // (a racing writer may seal this very page under us); a tail snapshot
    // stays stable against further concurrent appends.
    uint32_t count;
    if (file_->SnapshotTailIfCurrent(page_no, &tail_copy_, &count)) {
      pinned_.reset();
    } else {
      auto page = file_->pool_->GetPage(file_->file_id_, page_no, file_);
      if (!page.ok()) {
        status_ = page.status();
        return false;
      }
      pinned_ = std::move(page).MoveValueUnsafe();
    }
    pinned_page_no_ = page_no;
  }
  const char* base =
      pinned_ != nullptr
          ? pinned_->data() + kPageHeaderSize + slot * file_->record_size_
          : tail_copy_.data() + slot * file_->record_size_;
  *record = Slice(base, file_->record_size_);
  if (index != nullptr) *index = next_;
  ++next_;
  return true;
}

}  // namespace decibel
