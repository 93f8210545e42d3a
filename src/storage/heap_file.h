#ifndef DECIBEL_STORAGE_HEAP_FILE_H_
#define DECIBEL_STORAGE_HEAP_FILE_H_

/// \file heap_file.h
/// Append-only record file, the unit of physical storage for all three
/// Decibel engines: the tuple-first engine keeps one big heap file, the
/// version-first and hybrid engines keep one per segment (§3).
///
/// Records are fixed-width (see schema.h), packed into fixed-size pages
/// (format v2):
///
///   file   := header page | page*
///   header := magic u32 | version u32 | page_size u64 | record_size u32 |
///             reserved | crc u32                          (64 bytes)
///   page   := count u32 | masked_crc u32 | format u8 | pad u8*3 |
///             stored_len u32 | stored bytes | zero padding to page_size
///   last   := the same header and stored bytes, unpadded when partial
///
/// `format` is a columnar::PageFormat tag; `stored_len` counts the stored
/// bytes, and the CRC covers exactly those bytes. A kRaw page stores the
/// `count` records verbatim (stored_len == count * record_size); compressed
/// formats store the page_codec encoding and are decoded on read, with the
/// BufferPool caching the *decoded* page. Full pages occupy fixed
/// page_size slots on disk either way — compression buys read I/O and
/// pre-decode predicate evaluation, not disk footprint — so page n starts
/// at header + n * page_size. The one exception is a partial tail page:
/// it is stored as its 16-byte header plus the used bytes, so only a
/// file's final slot can be short, and a branch's small sealed segment
/// costs what it holds rather than a whole page.
///
/// Appends accumulate in an in-memory tail page; a page is written to disk
/// when it fills (or on Flush, which rewrites the partial tail in place,
/// growing its short slot).
/// The tail and pages sealed *from* the tail are always kRaw: the tail
/// slot is rewritten in place, and crash recovery relies on a reseal
/// preserving the already-checkpointed byte prefix — recompressing it
/// would not. Only AppendBatch's full-page fast path (which writes a page
/// slot no checkpoint has referenced) compresses. Sealed (full) pages are
/// immutable and cached by the BufferPool. Record index <-> page/slot
/// mapping is arithmetic.
///
/// When Options::schema is set, the file also maintains columnar zone
/// maps — per sealed page, for the tail, and for the whole file — kept
/// strictly ahead of num_records_ so any record a reader can see is
/// already folded into the stats. Engines persist them via EncodeStats /
/// LoadStats and consult them through PageMayMatch / FileMayMatch to skip
/// pages and files without touching bytes.

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "columnar/page_codec.h"
#include "columnar/zone_map.h"
#include "common/io.h"
#include "common/result.h"
#include "storage/buffer_pool.h"

namespace decibel {

class PreparedPredicate;

class HeapFile : public PageSource {
 public:
  struct Options {
    uint64_t page_size = 1 << 20;  ///< paper uses 4 MB; tests use smaller
    /// Record layout, enabling zone-map maintenance and (with
    /// compress_pages) adaptive page encoding. Must outlive the file;
    /// null disables statistics (degraded mode for raw-file tests).
    const Schema* schema = nullptr;
    /// Encode full-batch pages with the page codec when it wins.
    bool compress_pages = false;
  };

  /// Creates a new heap file at \p path. A pre-existing file there is
  /// removed first: Create is only reached when the engine's metadata
  /// says no such file exists, so anything on disk is stale debris from
  /// a crash after the last checkpoint (WAL replay recreates the file).
  static Result<std::unique_ptr<HeapFile>> Create(const std::string& path,
                                                  uint32_t record_size,
                                                  const Options& options,
                                                  BufferPool* pool);

  /// Opens an existing heap file, restoring append position. A short final
  /// slot is the partial tail; one cut inside its stored bytes (or a full
  /// page in a short slot) is Corruption.
  static Result<std::unique_ptr<HeapFile>> Open(const std::string& path,
                                                const Options& options,
                                                BufferPool* pool);

  /// What a checkpoint records about this file: how many records were
  /// durable at checkpoint time and the CRC of the partial tail page's
  /// payload at that moment. Enough to (a) discard records appended
  /// after the checkpoint on recovery and (b) detect a tail page torn by
  /// a crash mid-rewrite.
  struct CheckpointState {
    uint64_t num_records = 0;
    uint32_t tail_crc = 0;  ///< CRC32 of the tail payload (0 if tail empty)
  };

  /// Snapshot of the current checkpoint state. Call after Flush/Sync with
  /// writers quiesced — the state describes what is on disk.
  CheckpointState GetCheckpointState() const;

  /// Opens an existing heap file and rolls it back to \p state: records
  /// appended after the checkpoint are truncated away and the tail page
  /// is rewritten with a valid header. Fails with Corruption if the first
  /// state.num_records records do not verify (a genuinely torn write
  /// inside checkpointed data, or a file cut short of it). This is the
  /// crash-recovery entry point — after it succeeds the file ends at the
  /// checkpointed tail's header + bytes, exactly as a flush at checkpoint
  /// time left it.
  static Result<std::unique_ptr<HeapFile>> OpenAtCheckpoint(
      const std::string& path, const Options& options, BufferPool* pool,
      const CheckpointState& state);

  ~HeapFile() override;
  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Appends one record (must be exactly record_size bytes); returns its
  /// index. Fails on sealed files.
  Result<uint64_t> Append(Slice record);

  /// Appends \p count records packed contiguously in \p records (exactly
  /// count * record_size bytes); returns the index of the first. The
  /// records receive consecutive indices. One tail-lock round and
  /// page-sized copies per page instead of count individual Appends —
  /// the engines' ApplyBatch path.
  ///
  /// Unlike single-record Append, concurrent writers of the SAME file
  /// must be serialized by the caller (readers stay safe). The engines
  /// satisfy this: all three serialize their mutating entry points
  /// engine-wide behind a write mutex (they share segment registries or
  /// bitmap state across branches anyway).
  Result<uint64_t> AppendBatch(Slice records, uint64_t count);

  /// Writes the partial tail page to disk.
  Status Flush();

  /// Flushes, then fdatasyncs the file so every record survives a power
  /// loss (not just a process crash).
  Status Sync();

  /// Flushes and forbids further appends (hybrid freezes head segments on
  /// branch, §3.4). Also releases the write descriptor — a sealed file
  /// never appends again, and under branch churn one held fd per sealed
  /// segment adds up to descriptor exhaustion. Sync() reopens transiently.
  Status Seal();
  bool sealed() const { return sealed_; }

  /// Seals (if not already sealed) and closes every file descriptor this
  /// heap file holds. The file stays fully readable: the reader reopens
  /// lazily on the next page miss. Used when a branch is retired so its
  /// segments stop pinning fds.
  Status ReleaseFileHandles();

  /// Copies record \p index into \p out.
  Status Get(uint64_t index, std::string* out);

  uint64_t num_records() const { return num_records_; }
  uint32_t record_size() const { return record_size_; }
  uint64_t page_size() const { return options_.page_size; }
  uint64_t records_per_page() const { return records_per_page_; }
  uint64_t file_id() const { return file_id_; }
  const std::string& path() const { return path_; }

  /// Bytes this file occupies on disk once flushed: the header, a whole
  /// slot per full page, and header + used bytes for a partial tail. After
  /// Flush this is the file's length.
  uint64_t SizeBytes() const;

  /// PageSource: reads a sealed page from disk, verifying its checksum.
  Status ReadPageFromDisk(uint64_t page_no, std::string* out) override;

  /// A pinned view of one page's record payload, copying nothing: \p pin
  /// keeps the underlying buffer alive and \p payload points at its
  /// first record. For a sealed page the buffer is the pool's page.
  /// For the tail it is the tail buffer itself, shared with the appender:
  /// the pin owns the first \p count records of it, which no writer
  /// changes or moves (see tail_), and must read nothing past them.
  struct PinnedPage {
    PageRef pin;
    const char* payload = nullptr;
    uint32_t count = 0;   // records readable through this pin
    /// Stored bytes behind this pin (page header + stored_len for sealed
    /// pages, count * record_size for the tail) — what
    /// ScanStats::bytes_read charges. Compressed pages charge their
    /// compressed size.
    uint64_t io_bytes = 0;
  };

  /// Pins page \p page_no (a prefix of the in-memory tail if that is the
  /// requested page). Used by Scanner and to rebuild page stats.
  Result<PinnedPage> PinPage(uint64_t page_no);

  /// PinPage variant that may prove the page irrelevant without decoding:
  /// if the page is stored columnar-compressed and not yet cached, the
  /// predicate is evaluated on the compressed strips first; zero matches
  /// sets *no_matches and returns an empty (payload-less) pin whose
  /// io_bytes still charges the stored bytes inspected. Only callers
  /// whose version resolution is external (bitmap engines) may treat
  /// *no_matches as permission to skip — the page's records still exist.
  Result<PinnedPage> PinPageCounted(uint64_t page_no,
                                    const PreparedPredicate* predicate,
                                    bool* no_matches);

  // ------------------------------------------------------- zone maps

  /// Per-sealed-page statistics (zone map + storage format). Format and
  /// stored_bytes are recorded as pages seal, schema or not — they size
  /// the page's single read on a pool miss — while the zone map stays
  /// empty without a schema.
  struct PageStats {
    columnar::ZoneMap zone;
    columnar::PageFormat format = columnar::PageFormat::kRaw;
    uint32_t stored_bytes = 0;  ///< stored_len of the page on disk
  };

  bool stats_enabled() const { return options_.schema != nullptr; }

  /// Could any live record of page \p page_no match? Pages beyond the
  /// sealed range test the tail zone. Always true with stats disabled.
  bool PageMayMatch(uint64_t page_no, const PreparedPredicate& predicate) const;

  /// Could any live record of the whole file match? False lets a scan
  /// drop the file without opening a cursor on it.
  bool FileMayMatch(const PreparedPredicate& predicate) const;

  /// Copies the per-page stats and the tail zone, consistent with each
  /// other. Cursors snapshot once at open and plan skipping against the
  /// snapshot (concurrent appends only add pages the caller's record
  /// bound excludes anyway).
  void SnapshotPageStats(std::vector<PageStats>* pages,
                         columnar::ZoneMap* tail_zone) const;

  /// Zone covering every record in the file (sealed pages + tail).
  columnar::ZoneMap FileZone() const;

  /// Serializes the per-page stats for engine metadata persistence. Call
  /// with writers quiesced (checkpoint time).
  void EncodeStats(std::string* dst) const;

  /// Restores stats persisted by EncodeStats. Entries beyond the current
  /// sealed-page count (metadata newer than a rolled-back file) are
  /// dropped; missing entries are rebuilt by EnsureStats.
  Status LoadStats(Slice input);

  /// Computes stats for any sealed page lacking them (reading the page)
  /// and rebuilds the tail and file zones. No-op with stats disabled.
  /// Engines call this after open so skipping never depends on how fresh
  /// the persisted blob was.
  Status EnsureStats();

  /// Sequential scanner over record indexes [begin, end). Pins one page at
  /// a time (PinPage) and steps through it by offset, dividing only to
  /// find the next page.
  class Scanner {
   public:
    Scanner(HeapFile* file, uint64_t begin, uint64_t end);
    /// Advances to the next record; returns false at end or error (check
    /// status()). \p record points into pinned page memory and is valid
    /// until the next call.
    bool Next(Slice* record, uint64_t* index);
    const Status& status() const { return status_; }

   private:
    HeapFile* file_;
    uint64_t next_;
    uint64_t end_;
    PinnedPage page_;
    uint64_t page_begin_ = 0;  // [page_begin_, page_end_): page_'s records
    uint64_t page_end_ = 0;
    Status status_;
  };

  Scanner NewScanner() { return Scanner(this, 0, num_records()); }
  Scanner NewScanner(uint64_t begin, uint64_t end) {
    return Scanner(this, begin, end);
  }

 private:
  HeapFile(std::string path, uint32_t record_size, const Options& options,
           BufferPool* pool);

  /// Parsed v2 page header.
  struct PageHeader {
    uint32_t count = 0;
    columnar::PageFormat format = columnar::PageFormat::kRaw;
    uint32_t stored_len = 0;
  };

  Status WriteHeader();
  Status WriteTailPage();
  /// Reads a sealed page's header and stored bytes into \p page with one
  /// pread whose length comes from the page's PageStats (the whole slot
  /// if it has none yet), checks the header against those stats and
  /// verifies the CRC in place. Compressed pages read less than a slot.
  Status ReadStoredPage(uint64_t page_no, std::string* page,
                        PageHeader* header) const;
  /// Turns what ReadStoredPage left in \p page into the cached shape: the
  /// on-disk header, the row-major payload (decoded if compressed), zero
  /// padding up to page_size.
  Status DecodeStoredPage(const PageHeader& header, std::string* page) const;
  /// Folds one staged record into the tail/file zones (call before
  /// publishing num_records_).
  void FoldTailRecords(const char* records, uint64_t count);
  /// Writes the full tail page to disk and resets the tail for the next
  /// page — the seal step shared by Append and AppendBatch.
  Status SealTailPage();
  /// Records the stats of the page being sealed (page sealed_pages_),
  /// unless earlier pages still lack theirs. Caller holds stats_mu_.
  void AppendPageStatsLocked(PageStats ps);
  uint64_t PageOffset(uint64_t page_no) const;
  /// If \p page_no is (still) the tail page, pins the tail's current
  /// records into \p out (sharing the buffer, copying nothing) and
  /// returns true; returns false if that page has been sealed to disk.
  /// Decision and pin are atomic, so readers racing a writer that seals
  /// the page never read a stale (empty) tail.
  bool SnapshotTailIfCurrent(uint64_t page_no, PinnedPage* out) const;
  /// Appends \p count records to the tail, never touching the bytes of
  /// records already there (see tail_). Caller holds tail_mu_.
  void AppendToTailLocked(const char* records, uint64_t count);

  static std::atomic<uint64_t> next_file_id_;

  const std::string path_;
  const uint32_t record_size_;
  const Options options_;
  BufferPool* const pool_;
  const uint64_t file_id_;
  uint64_t records_per_page_ = 0;

  std::optional<RandomWriteFile> writer_;
  mutable std::optional<RandomAccessFile> reader_;
  mutable std::mutex reader_mu_;

  uint64_t sealed_pages_ = 0;          // number of full pages on disk
  std::atomic<uint64_t> num_records_{0};
  bool sealed_ = false;
  bool tail_dirty_ = false;

  mutable std::mutex tail_mu_;
  /// Payload bytes of the partial page: its first tail_count_ records.
  /// Pins share this buffer and read only the prefix they saw, so a
  /// writer never changes or moves bytes below tail_count_: an append
  /// that fits the capacity writes past the prefix in place, one that
  /// does not copies the prefix into a buffer of twice the capacity and
  /// swaps it in, and a seal swaps in a fresh buffer. Nothing here looks
  /// at use_count(): a relaxed count does not order a reader's last read
  /// before a writer's reuse.
  std::shared_ptr<std::string> tail_ = std::make_shared<std::string>();
  uint32_t tail_count_ = 0;

  /// Leaf lock guarding the zone-map state; never held across I/O or
  /// pool calls. Ordering: stats entries for a page are published before
  /// sealed_pages_ counts it, and tail/file zones fold a record before
  /// num_records_ publishes it — a reader that can see a record can see
  /// its stats.
  mutable std::mutex stats_mu_;
  std::vector<PageStats> page_stats_;  // [i] = page i; a prefix of sealed
  columnar::ZoneMap tail_zone_;        // records currently staged in tail_
  columnar::ZoneMap file_zone_;        // every record ever appended

  friend class Scanner;
};

}  // namespace decibel

#endif  // DECIBEL_STORAGE_HEAP_FILE_H_
