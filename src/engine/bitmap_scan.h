#ifndef DECIBEL_ENGINE_BITMAP_SCAN_H_
#define DECIBEL_ENGINE_BITMAP_SCAN_H_

/// \file bitmap_scan.h
/// Iterating heap-file records selected by a bitmap — the inner loop of
/// the tuple-first and hybrid engines. Pins one page at a time and skips
/// directly between set bits, so sparse branches touch only the pages
/// they occupy (the clustering benefit hybrid gets from small segments),
/// and a page pruned by its zone map is stepped over in one move.
/// PartsCursor chains such scans across segment files; it serves
/// hybrid's views and version-first's multi-branch view.

#include <optional>
#include <utility>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/status.h"
#include "engine/scan_spec.h"
#include "storage/heap_file.h"
#include "storage/record.h"

namespace decibel {

class BitmapScanner {
 public:
  /// \p bits must outlive the scanner.
  BitmapScanner(HeapFile* heap, const Schema* schema, const Bitmap* bits)
      : heap_(heap),
        schema_(schema),
        bits_(bits),
        record_size_(heap->record_size()) {}

  /// Turns on zone-map page skipping: pages whose zone maps rule out
  /// \p predicate (or whose compressed strips prove zero matches) are
  /// stepped over without decoding, in one move past the page's last
  /// record, so a skipped page costs one zone-map probe however many of
  /// its bits are set. Sound because the bitmap already resolved version
  /// visibility — skipped records were only ever going to be filtered
  /// out. \p stats (optional) receives pages_skipped (once per skipped
  /// page) and bytes_read. Both pointers must outlive the scanner.
  void EnablePruning(const PreparedPredicate* predicate, ScanStats* stats) {
    predicate_ = predicate;
    stats_ = stats;
  }

  /// Advances to the next selected record. Returns false at end or error.
  /// Inside the pinned page a record is an offset from the page's first
  /// index; only a record outside it costs a division, to find its page.
  bool Next(RecordRef* out, uint64_t* index) {
    if (!status_.ok()) return false;
    const uint64_t limit = heap_->num_records();
    for (;;) {
      const uint64_t next = bits_->NextSet(pos_);
      if (next == UINT64_MAX || next >= limit) return false;
      if (next < page_begin_ || next >= page_end_) {
        const uint64_t rpp = heap_->records_per_page();
        const uint64_t page_no = next / rpp;
        bool skip = predicate_ != nullptr &&
                    !heap_->PageMayMatch(page_no, *predicate_);
        if (!skip) {
          auto page = heap_->PinPageCounted(page_no, predicate_, &skip);
          if (!page.ok()) {
            status_ = page.status();
            return false;
          }
          if (stats_ != nullptr) stats_->bytes_read += page.value().io_bytes;
          if (!skip) {
            page_ = std::move(page).MoveValueUnsafe();
            page_begin_ = page_no * rpp;
            page_end_ = page_begin_ + page_.count;
          }
        }
        if (skip) {
          if (stats_ != nullptr) ++stats_->pages_skipped;
          pos_ = (page_no + 1) * rpp;
          continue;
        }
        if (next >= page_end_) {
          // A set bit names a record the pinned page does not hold.
          status_ = Status::Corruption("bitmap scan: record " +
                                       std::to_string(next) +
                                       " beyond its page in " + heap_->path());
          return false;
        }
      }
      pos_ = next + 1;
      *out = RecordRef(
          schema_,
          Slice(page_.payload + (next - page_begin_) * record_size_,
                record_size_));
      if (index != nullptr) *index = next;
      return true;
    }
  }

  const Status& status() const { return status_; }

 private:
  HeapFile* heap_;
  const Schema* schema_;
  const Bitmap* bits_;
  const PreparedPredicate* predicate_ = nullptr;
  ScanStats* stats_ = nullptr;
  const uint64_t record_size_;
  uint64_t pos_ = 0;
  HeapFile::PinnedPage page_;
  uint64_t page_begin_ = 0;  // [page_begin_, page_end_): page_'s records
  uint64_t page_end_ = 0;
  Status status_;
};

/// One unit of a segmented scan: a segment file plus the bitmap(s)
/// selecting its rows. Multi views carry one column per requested branch
/// in `cols` and their union in `unioned`; single views leave `cols`
/// empty. The file pointer is captured under the engine's registry lock
/// at open, so cursors stream without re-reading the registry.
struct ScanPart {
  HeapFile* file = nullptr;
  Bitmap unioned;
  std::vector<Bitmap> cols;
};

/// Drops the parts whose file-level zone map rules \p predicate out and
/// returns how many were dropped (whole segments skipped). Sound because
/// the bitmaps already resolved visibility: a dropped segment's selected
/// rows could only ever have failed the predicate.
inline uint64_t DropUnmatchableParts(const PreparedPredicate& predicate,
                                     std::vector<ScanPart>* parts) {
  if (predicate.empty()) return 0;
  const size_t before = parts->size();
  std::vector<ScanPart> kept;
  kept.reserve(before);
  for (ScanPart& part : *parts) {
    if (part.file->FileMayMatch(predicate)) kept.push_back(std::move(part));
  }
  *parts = std::move(kept);
  return before - parts->size();
}

/// Streaming cursor chaining bitmap scans across scan parts, in part
/// order. Owns the bitmaps. The pushed-down predicate runs on the
/// in-page record bytes before the per-branch membership probes of multi
/// views, and pages it rules out are skipped (BitmapScanner pruning).
class PartsCursor : public ScanCursor {
 public:
  /// \p schema and \p counters must outlive the cursor; \p counters
  /// receives the cursor's stats when it dies.
  PartsCursor(const Schema* schema, ScanCounters* counters,
              std::vector<ScanPart> parts, uint64_t segments_skipped,
              std::vector<BranchId> branch_list, const ScanSpec& spec)
      : schema_(schema),
        counters_(counters),
        parts_(std::move(parts)),
        branch_list_(std::move(branch_list)),
        prepared_(spec.predicate, *schema),
        limit_(spec.limit),
        row_bytes_(ProjectedRowBytes(*schema, spec.projection)) {
    stats_.segments_skipped = segments_skipped;
  }
  ~PartsCursor() override { counters_->Add(stats_); }

  bool Next(ScanRow* out) override {
    if (limit_ != 0 && stats_.rows_emitted >= limit_) return false;
    for (;;) {
      if (!scanner_.has_value()) {
        if (next_part_ >= parts_.size()) return false;
        scanner_.emplace(parts_[next_part_].file, schema_,
                         &parts_[next_part_].unioned);
        scanner_->EnablePruning(&prepared_, &stats_);
      }
      RecordRef rec;
      uint64_t idx;
      if (!scanner_->Next(&rec, &idx)) {
        if (!scanner_->status().ok()) {
          status_ = scanner_->status();
          return false;
        }
        scanner_.reset();
        ++next_part_;
        continue;
      }
      ++stats_.rows_scanned;
      stats_.bytes_scanned += row_bytes_;
      if (!prepared_.Matches(rec.data().data())) continue;
      const ScanPart& part = parts_[next_part_];
      if (!part.cols.empty()) {
        present_.clear();
        for (uint32_t i = 0; i < part.cols.size(); ++i) {
          if (part.cols[i].Test(idx)) present_.push_back(i);
        }
        out->branches = &present_;
      } else {
        out->branches = nullptr;
      }
      out->record = rec;
      ++stats_.rows_emitted;
      return true;
    }
  }

  const Status& status() const override { return status_; }
  const ScanStats& stats() const override { return stats_; }
  const std::vector<BranchId>& branches() const override {
    return branch_list_;
  }

 private:
  const Schema* schema_;
  ScanCounters* counters_;
  std::vector<ScanPart> parts_;
  std::vector<BranchId> branch_list_;
  PreparedPredicate prepared_;
  uint64_t limit_;
  uint32_t row_bytes_;
  size_t next_part_ = 0;
  std::optional<BitmapScanner> scanner_;
  std::vector<uint32_t> present_;
  ScanStats stats_;
  Status status_;
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_BITMAP_SCAN_H_
