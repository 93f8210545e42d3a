#ifndef DECIBEL_ENGINE_BITMAP_SCAN_H_
#define DECIBEL_ENGINE_BITMAP_SCAN_H_

/// \file bitmap_scan.h
/// Iterating heap-file records selected by a bitmap — the inner loop of
/// the tuple-first and hybrid engines. Pins one page at a time and skips
/// directly between set bits, so sparse branches touch only the pages
/// they occupy (the clustering benefit hybrid gets from small segments),
/// and a page pruned by its zone map is stepped over in one move.
/// PartsCursor chains such scans across segment files for hybrid's
/// single-version views; MultiPartsCursor does so a page at a time for
/// the multi-branch views of hybrid and version-first, through
/// AnnotateRun, the multi-view kernel tuple-first shares.

#include <optional>
#include <utility>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/status.h"
#include "engine/scan_spec.h"
#include "storage/heap_file.h"
#include "storage/striped_heap.h"
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
      if ((next < page_begin_ || next >= page_end_) && !PinPageOf(next)) {
        if (!status_.ok()) return false;
        continue;
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

  /// Pins the next page holding a selected record and returns the rest
  /// of that page from the record on; the scan resumes after it. The run
  /// may hold unselected records: the caller reads the bitmap's words
  /// over [begin, end). Returns false at end or error.
  bool NextRun(PageRun* run) {
    if (!status_.ok()) return false;
    const uint64_t limit = heap_->num_records();
    for (;;) {
      const uint64_t next = bits_->NextSet(pos_);
      if (next == UINT64_MAX || next >= limit) return false;
      if ((next < page_begin_ || next >= page_end_) && !PinPageOf(next)) {
        if (!status_.ok()) return false;
        continue;
      }
      run->first = page_.payload + (next - page_begin_) * record_size_;
      run->begin = next;
      run->end = page_end_;
      pos_ = page_end_;
      return true;
    }
  }

  const Status& status() const { return status_; }

 private:
  /// Pins the page holding record \p next. False when pruning skipped
  /// the page (pos_ moves past it) or on error (status_ set).
  bool PinPageOf(uint64_t next) {
    const uint64_t rpp = heap_->records_per_page();
    const uint64_t page_no = next / rpp;
    bool skip =
        predicate_ != nullptr && !heap_->PageMayMatch(page_no, *predicate_);
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
      return false;
    }
    if (next >= page_end_) {
      // A set bit names a record the pinned page does not hold.
      status_ = Status::Corruption("bitmap scan: record " +
                                   std::to_string(next) +
                                   " beyond its page in " + heap_->path());
      return false;
    }
    return true;
  }

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

/// The multi-view kernel of every engine (§3.2's multi-branch scan,
/// "emitting each tuple annotated with the branches it is active in"):
/// reads one pinned page's \p run a 64-bit word of \p unioned at a time.
/// Per word, the selected records are appended to \p page, the
/// pushed-down predicate runs once over them (PreparedPredicate::
/// MatchEach) and drops the failures, and the survivors' membership
/// words are built from the same word of every column of \p cols. Counts
/// the examined rows (and their \p row_bytes) and the emitted ones into
/// \p stats. With \p limit != 0 it stops at the row that brings
/// rows_emitted to \p limit, counting nothing past it.
inline void AnnotateRun(const PageRun& run, const Bitmap& unioned,
                        const std::vector<Bitmap>& cols,
                        const PreparedPredicate& predicate, uint32_t row_bytes,
                        uint64_t limit, ScanStats* stats, ScanPage* page) {
  const uint32_t wpr = page->words_per_row;
  const uint32_t record_size = page->record_size;
  const uint64_t first_word = run.begin >> 6;
  const uint64_t last_word = (run.end - 1) >> 6;
  for (uint64_t w = first_word; w <= last_word; ++w) {
    uint64_t selected = unioned.Word(w);
    if (w == first_word) selected &= ~uint64_t{0} << (run.begin & 63);
    if (w == last_word && (run.end & 63) != 0) {
      selected &= (uint64_t{1} << (run.end & 63)) - 1;
    }
    if (selected == 0) continue;
    // The selected records, in bit order; rank[b] is bit b's row among
    // them (once the predicate ran, among the survivors).
    const size_t first_row = page->size();
    uint32_t rows = static_cast<uint32_t>(__builtin_popcountll(selected));
    page->records.resize(first_row + rows);
    const char** out = page->records.data() + first_row;
    uint8_t rank[64];
    uint32_t row = 0;
    for (uint64_t rest = selected; rest != 0; rest &= rest - 1) {
      const int b = __builtin_ctzll(rest);
      rank[b] = static_cast<uint8_t>(row);
      out[row++] = run.first + ((w << 6) + b - run.begin) * record_size;
    }
    uint64_t emitted = selected;
    if (!predicate.empty()) {
      const uint64_t pass = predicate.MatchEach(out, rows);
      if (pass != ~uint64_t{0} >> (64 - rows)) {
        emitted = 0;
        row = 0;
        uint32_t k = 0;
        for (uint64_t rest = selected; rest != 0; rest &= rest - 1, ++k) {
          if (((pass >> k) & 1) == 0) continue;
          const int b = __builtin_ctzll(rest);
          emitted |= uint64_t{1} << b;
          rank[b] = static_cast<uint8_t>(row);
          out[row++] = out[k];
        }
        rows = row;
      }
    }
    bool cut = false;
    if (limit != 0 && rows >= limit - stats->rows_emitted) {
      // Keep the first survivors up to the limit; nothing past the last
      // of them is examined.
      rows = static_cast<uint32_t>(limit - stats->rows_emitted);
      while (static_cast<uint32_t>(__builtin_popcountll(emitted)) > rows) {
        emitted &= ~(uint64_t{1} << (63 - __builtin_clzll(emitted)));
      }
      selected &= ~uint64_t{0} >> __builtin_clzll(emitted);
      cut = true;
    }
    page->records.resize(first_row + rows);
    const uint64_t examined = __builtin_popcountll(selected);
    stats->rows_scanned += examined;
    stats->bytes_scanned += examined * row_bytes;
    stats->rows_emitted += rows;
    if (rows != 0) {
      // A column live in every emitted row of the word (the common case:
      // branches share most rows) sets its bit in the first row, which is
      // then copied to the others; only mixed columns go bit by bit.
      page->members.resize((first_row + rows) * wpr, 0);
      uint64_t* members = page->members.data() + first_row * wpr;
      for (uint32_t c = 0; c < cols.size(); ++c) {
        if ((cols[c].Word(w) & emitted) == emitted) {
          members[c >> 6] |= uint64_t{1} << (c & 63);
        }
      }
      for (size_t i = wpr; i < rows * wpr; ++i) members[i] = members[i - wpr];
      for (uint32_t c = 0; c < cols.size(); ++c) {
        uint64_t in = cols[c].Word(w) & emitted;
        if (in == emitted) continue;
        for (; in != 0; in &= in - 1) {
          members[rank[__builtin_ctzll(in)] * wpr + (c >> 6)] |=
              uint64_t{1} << (c & 63);
        }
      }
    }
    if (cut) return;
  }
}

/// Streaming cursor chaining bitmap scans across the parts of a
/// single-version view, in part order. Owns the bitmaps. The pushed-down
/// predicate runs on the in-page record bytes, and pages it rules out are
/// skipped (BitmapScanner pruning).
class PartsCursor : public ScanCursor {
 public:
  /// \p schema and \p counters must outlive the cursor; \p counters
  /// receives the cursor's stats when it dies.
  PartsCursor(const Schema* schema, ScanCounters* counters,
              std::vector<ScanPart> parts, uint64_t segments_skipped,
              const ScanSpec& spec)
      : schema_(schema),
        counters_(counters),
        parts_(std::move(parts)),
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
      if (!scanner_->Next(&rec, nullptr)) {
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
      out->branches = nullptr;
      out->record = rec;
      ++stats_.rows_emitted;
      return true;
    }
  }

  const Status& status() const override { return status_; }
  const ScanStats& stats() const override { return stats_; }

 private:
  const Schema* schema_;
  ScanCounters* counters_;
  std::vector<ScanPart> parts_;
  PreparedPredicate prepared_;
  uint64_t limit_;
  uint32_t row_bytes_;
  size_t next_part_ = 0;
  std::optional<BitmapScanner> scanner_;
  ScanStats stats_;
  Status status_;
};

/// The multi-branch view of hybrid and version-first: the parts in order,
/// each pinned page's rows through AnnotateRun. Owns the bitmaps.
class MultiPartsCursor : public PagedCursor {
 public:
  /// As PartsCursor; every part carries one column per entry of
  /// \p branch_list.
  MultiPartsCursor(const Schema* schema, ScanCounters* counters,
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
  ~MultiPartsCursor() override { counters_->Add(stats_); }

  bool NextPage(ScanPage* page) override {
    page->Reset(schema_, static_cast<uint32_t>(branch_list_.size()));
    while (limit_ == 0 || stats_.rows_emitted < limit_) {
      if (!scanner_.has_value()) {
        if (next_part_ >= parts_.size()) return false;
        scanner_.emplace(parts_[next_part_].file, schema_,
                         &parts_[next_part_].unioned);
        scanner_->EnablePruning(&prepared_, &stats_);
      }
      PageRun run;
      if (!scanner_->NextRun(&run)) {
        if (!scanner_->status().ok()) {
          status_ = scanner_->status();
          return false;
        }
        scanner_.reset();
        ++next_part_;
        continue;
      }
      const ScanPart& part = parts_[next_part_];
      AnnotateRun(run, part.unioned, part.cols, prepared_, row_bytes_, limit_,
                  &stats_, page);
      if (page->size() != 0) return true;
    }
    return false;
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
  ScanStats stats_;
  Status status_;
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_BITMAP_SCAN_H_
