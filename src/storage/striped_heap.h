#ifndef DECIBEL_STORAGE_STRIPED_HEAP_H_
#define DECIBEL_STORAGE_STRIPED_HEAP_H_

/// \file striped_heap.h
/// The tuple-first engine's shared heap, sharded into one append-only
/// HeapFile per write stripe so branches on different stripes never
/// contend on the same tail page. One *global* record-index space is
/// preserved — the bitmap index and pk indexes keep addressing tuples by
/// a single uint64_t — by handing each stripe contiguous *extents* of
/// the global space on demand:
///
///   extent := {global base, capacity, stripe, stripe-local base}
///
/// A stripe fills its open extent record by record; when a batch
/// outgrows it, a fresh extent of max(extent_records, what's left of the
/// batch) indices is carved off the global counter, so one batch spans at
/// most two extents and AppendBatch reports the assigned indices as a
/// short list of contiguous runs. The unfilled tail of an open extent is
/// simply never handed out — bitmaps keep zeros there and scans skip it.
///
/// Concurrency contract: writers to the SAME stripe must be serialized by
/// the caller (the engine's stripe locks do this); writers to different
/// stripes proceed in parallel, coordinating only on the global counter
/// and the extent table. Readers never block: Mapping is an immutable
/// snapshot of the extent table taken at cursor-open time, and the
/// underlying HeapFiles are append-only with snapshot-safe tail reads.
///
/// Persistence: Checkpoint(tag) writes `heap.manifest.<tag>` (extent
/// table, geometry, each stripe's record count and tail CRC) after
/// flushing the stripe files, next to the engine's `engine.meta.<tag>`.
/// Open(tag) rolls every stripe back to that checkpoint.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/result.h"
#include "storage/heap_file.h"
#include "storage/record.h"

namespace decibel {

class StripedHeap {
 public:
  struct Options {
    uint64_t page_size = 1 << 20;
    uint32_t stripes = 8;
    /// Minimum global indices carved per extent; 0 derives one page's
    /// worth of records (keeps the extent table small without letting
    /// open-extent holes outgrow a page per stripe).
    uint64_t extent_records = 0;
    /// Record layout forwarded to every stripe file — enables zone maps
    /// (and, with compress_pages, adaptive page encoding). Must outlive
    /// the heap; null disables statistics.
    const Schema* schema = nullptr;
    /// Forwarded to every stripe file's HeapFile::Options.
    bool compress_pages = false;
  };

  /// A contiguous range of global indices assigned by one AppendBatch.
  struct Run {
    uint64_t base = 0;
    uint64_t count = 0;
  };

  /// The runs one AppendBatch assigned. A batch spans at most two extents
  /// (the refill extent always covers the whole remainder), so storage is
  /// inline — the per-transaction write path never allocates here.
  /// Adjacent runs coalesce on Add.
  class RunList {
   public:
    void Add(uint64_t base, uint64_t count) {
      if (size_ > 0 && runs_[size_ - 1].base + runs_[size_ - 1].count == base) {
        runs_[size_ - 1].count += count;
        return;
      }
      runs_[size_++] = Run{base, count};
    }
    const Run& operator[](size_t i) const { return runs_[i]; }
    size_t size() const { return size_; }

   private:
    Run runs_[2];
    size_t size_ = 0;
  };

  struct Extent {
    uint64_t base = 0;        ///< first global index
    uint64_t capacity = 0;    ///< global indices reserved
    uint32_t stripe = 0;      ///< owning stripe
    uint64_t local_base = 0;  ///< first record index in the stripe file
  };

  /// Creates a fresh striped heap in \p dir (one `heap.<i>.dbhf` per
  /// stripe; the manifest is written by Checkpoint).
  static Result<std::unique_ptr<StripedHeap>> Create(const std::string& dir,
                                                     uint32_t record_size,
                                                     const Options& options,
                                                     BufferPool* pool);

  /// Reopens a striped heap from the manifest Checkpoint(\p checkpoint_tag)
  /// wrote, rolling every stripe file back to that checkpoint's record
  /// counts. The stripe count persisted there wins over options.stripes.
  static Result<std::unique_ptr<StripedHeap>> Open(
      const std::string& dir, const Options& options, BufferPool* pool,
      const std::string& checkpoint_tag);

  /// Appends \p count records (packed, count * record_size bytes) to
  /// \p stripe and reports the assigned global indices as contiguous
  /// runs appended to \p runs (at most two). Caller must serialize
  /// writers per stripe.
  Status AppendBatch(uint32_t stripe, Slice records, uint64_t count,
                     RunList* runs);

  /// Single-record append; returns the assigned global index.
  Result<uint64_t> Append(uint32_t stripe, Slice record);

  /// Copies the record at global index \p global into \p out.
  Status Get(uint64_t global, std::string* out);

  /// One past the highest global index any extent covers — the bound the
  /// bitmap index must be able to address.
  uint64_t allocated_bound() const {
    return allocated_bound_.load(std::memory_order_acquire);
  }
  /// Total records appended (excludes open-extent holes).
  uint64_t num_records() const {
    return num_records_.load(std::memory_order_relaxed);
  }

  uint32_t record_size() const { return record_size_; }
  uint32_t stripe_count() const {
    return static_cast<uint32_t>(stripes_.size());
  }
  uint64_t SizeBytes() const;

  /// Checkpoints the heap under \p tag: flushes (and, if \p sync, fsyncs)
  /// every stripe file, then atomically writes `heap.manifest.<tag>`
  /// recording the extent table plus each stripe's durable record count
  /// and tail CRC. Open(dir, ..., tag) restores exactly this state.
  /// Writers must be quiesced by the caller.
  Status Checkpoint(const std::string& tag, bool sync);

  /// Deletes the tagged manifest written by Checkpoint(tag).
  Status RemoveCheckpoint(const std::string& tag);

  /// Rebuilds any missing per-page zone maps on every stripe file (see
  /// HeapFile::EnsureStats). Open() calls this after loading the
  /// manifest's persisted stats so skipping never depends on how fresh
  /// the persisted blobs were. No-op with stats disabled.
  Status EnsureStats();

  /// An immutable snapshot of the global->(file, local) translation.
  /// Cheap to copy around; resolves monotonically-increasing lookups in
  /// amortized O(1) via a cursor hint. Taken AFTER materializing the
  /// bitmap a scan will follow, it is guaranteed to cover every set bit
  /// (indices are carved from the counter before records are appended,
  /// before bits are set).
  class Mapping {
   public:
    Mapping() = default;

    /// Translates \p global; false if it falls outside every extent in
    /// the snapshot.
    bool Resolve(uint64_t global, HeapFile** file, uint64_t* local) const;

    /// Where a scan resumes after ruling out the page holding \p global
    /// (\p records_per_page records per page of its stripe file): past
    /// the page's last record in \p global's extent, continuing through
    /// following extents only while they extend the same stripe file
    /// back to back. Another stripe's extent can start inside the page's
    /// local range, and its bits are never jumped over; a page resuming
    /// in a later, non-adjacent extent is met there again. Requires
    /// Resolve(global) to succeed.
    uint64_t PastPage(uint64_t global, uint64_t records_per_page) const;

    /// One past the last global index this snapshot covers.
    uint64_t bound() const {
      return extents_.empty() ? 0
                              : extents_.back().base + extents_.back().capacity;
    }

   private:
    friend class StripedHeap;
    /// Index of the extent covering \p global, or extents_.size().
    size_t ExtentOf(uint64_t global) const;

    std::vector<Extent> extents_;         // sorted by base, gap-free
    std::vector<HeapFile*> files_;        // per stripe, stable pointers
    mutable size_t hint_ = 0;             // last resolved extent
  };

  Mapping SnapshotMapping() const;

 private:
  struct StripeState {
    std::unique_ptr<HeapFile> file;
    uint64_t next_global = 0;  ///< next index of the open extent
    uint64_t remaining = 0;    ///< indices left in the open extent
  };

  StripedHeap(std::string dir, uint32_t record_size, const Options& options,
              BufferPool* pool);

  std::string StripePath(uint32_t stripe) const;
  std::string ManifestPath(const std::string& tag) const;
  std::string EncodeManifest();
  /// Parses \p input and opens the stripe files, each rolled back to the
  /// manifest's per-stripe checkpoint state.
  Status LoadManifest(Slice input);
  /// Carves a fresh extent of max(extent_records_, needed) global indices
  /// for \p stripe.
  Status AllocateExtent(uint32_t stripe, uint64_t needed);

  const std::string dir_;
  uint32_t record_size_;
  const Options options_;
  BufferPool* const pool_;
  uint64_t extent_records_ = 0;

  std::vector<StripeState> stripes_;  // fixed size after construction

  /// Guards extent allocation (the global counter handoff).
  std::mutex alloc_mu_;
  /// Guards the extent table's shape; writers append under unique,
  /// Get/SnapshotMapping read under shared.
  mutable std::shared_mutex table_mu_;
  std::vector<Extent> extents_;  // sorted by base

  std::atomic<uint64_t> allocated_bound_{0};
  std::atomic<uint64_t> num_records_{0};
};

struct ScanStats;

/// Iterates heap records selected by a bitmap through a Mapping snapshot —
/// the striped counterpart of BitmapScanner. Lock-free: the bitmap is the
/// caller's materialized copy and the mapping never changes.
class StripedBitmapScanner {
 public:
  /// \p bits must outlive the scanner.
  StripedBitmapScanner(StripedHeap::Mapping mapping, const Schema* schema,
                       const Bitmap* bits)
      : mapping_(std::move(mapping)), schema_(schema), bits_(bits) {}

  /// Turns on zone-map page skipping: pages whose zone maps rule out
  /// \p predicate (or whose compressed strips prove zero matches) are
  /// stepped over without pinning, in one move to Mapping::PastPage.
  /// Sound here because the bitmap already resolved version visibility —
  /// a skipped page's records were only ever going to be filtered out.
  /// \p stats (optional) receives pages_skipped (once per skipped page,
  /// or per piece of a page split across non-adjacent extents) and
  /// bytes_read; both pointers must outlive the scanner.
  void EnablePruning(const PreparedPredicate* predicate, ScanStats* stats) {
    predicate_ = predicate;
    stats_ = stats;
  }

  bool Next(RecordRef* out, uint64_t* index);
  const Status& status() const { return status_; }

 private:
  StripedHeap::Mapping mapping_;
  const Schema* schema_;
  const Bitmap* bits_;
  const PreparedPredicate* predicate_ = nullptr;
  ScanStats* stats_ = nullptr;
  uint64_t pos_ = 0;
  HeapFile* pinned_file_ = nullptr;
  uint64_t pinned_page_no_ = UINT64_MAX;
  HeapFile::PinnedPage page_;
  Status status_;
};

}  // namespace decibel

#endif  // DECIBEL_STORAGE_STRIPED_HEAP_H_
