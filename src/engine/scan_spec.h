#ifndef DECIBEL_ENGINE_SCAN_SPEC_H_
#define DECIBEL_ENGINE_SCAN_SPEC_H_

/// \file scan_spec.h
/// The unified read-path contract: a ScanSpec describes *what* to read
/// (one view — a branch head, a historical commit, several branch heads
/// at once, or the positive diff of two branches) and *how much* of it
/// (a pushed-down Predicate, a column projection, a row limit, a
/// parallelism hint); StorageEngine::NewScan(spec) returns a ScanCursor
/// streaming the matching rows.
///
/// Pushing the predicate into the engines is what separates a native
/// versioned store from bolt-on versioning (§3): the engines evaluate the
/// predicate on the raw record bytes inside their scan loops — before
/// multi-branch bitmap annotation, before any copy-out — so
/// predicate-failing records cost one comparison, not a materialization.
///
/// Work accounting: a cursor's ScanStats count the *live rows of the
/// view* it examined (after version resolution, before the predicate),
/// and their projected bytes. Engines also accumulate these lifetime
/// totals into EngineStats::rows_scanned / bytes_scanned via the
/// ScanCounters they embed.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "columnar/zone_map.h"
#include "common/result.h"
#include "query/predicate.h"
#include "storage/record.h"
#include "storage/schema.h"
#include "version/types.h"

namespace decibel {

/// The view a scan reads.
enum class ScanView : uint8_t {
  kBranch,  ///< one branch head
  kCommit,  ///< one historical commit
  kMulti,   ///< several branch heads, rows annotated with membership
  kHeads,   ///< all active branch heads (facade-resolved to kMulti)
  kDiff,    ///< rows of `branch` absent from `diff_base` (positive diff)
};

/// A declarative description of one read. Build with the static view
/// constructors, then chain Where/Project/WithLimit/Parallel:
///
///   db->NewScan(ScanSpec::Branch(dev)
///                   .Where(*Predicate::Compare(schema, "c1",
///                                              CompareOp::kGe, 40))
///                   .Project({0, 1})
///                   .WithLimit(100));
struct ScanSpec {
  ScanView view = ScanView::kBranch;
  BranchId branch = kMasterBranch;      ///< kBranch; left side of kDiff
  CommitId commit = kInvalidCommit;     ///< kCommit
  std::vector<BranchId> branches;       ///< kMulti (facade fills for kHeads)
  BranchId diff_base = kInvalidBranch;  ///< kDiff: the "NOT IN" side

  /// Conjunction of column comparisons evaluated inside the engine scan
  /// loop; empty matches everything.
  Predicate predicate;
  /// Column positions the caller will read; empty means all columns.
  /// Projected bytes (header + projected column widths) are what
  /// bytes_scanned charges per row. The primary key and the projected
  /// columns are always valid in emitted rows; the CONTENTS OF OTHER
  /// COLUMNS ARE UNSPECIFIED — zero-copy streaming paths expose the
  /// stored bytes, materializing paths (diff views, parallel segment
  /// scans) copy only the projection and leave the rest zeroed.
  std::vector<size_t> projection;
  /// Stop after this many emitted rows; 0 means unlimited.
  uint64_t limit = 0;
  /// Scan-thread hint for engines that can scan segments in parallel
  /// (§3.4); 0 defers to EngineOptions::scan_threads.
  int parallelism = 0;

  static ScanSpec Branch(BranchId b) {
    ScanSpec spec;
    spec.view = ScanView::kBranch;
    spec.branch = b;
    return spec;
  }
  static ScanSpec Commit(CommitId c) {
    ScanSpec spec;
    spec.view = ScanView::kCommit;
    spec.commit = c;
    return spec;
  }
  static ScanSpec Multi(std::vector<BranchId> bs) {
    ScanSpec spec;
    spec.view = ScanView::kMulti;
    spec.branches = std::move(bs);
    return spec;
  }
  /// All active branch heads (Table 1 query 4). Only Decibel::NewScan can
  /// resolve the branch list; engines reject this view.
  static ScanSpec Heads() {
    ScanSpec spec;
    spec.view = ScanView::kHeads;
    return spec;
  }
  /// Rows live in \p a whose key is absent from \p b — Table 1 query 2's
  /// "id NOT IN" (§2.2.3 Difference). The other side is Diff(b, a); an
  /// update-aware, byte-comparing diff of two commits is
  /// Decibel::DiffCommits.
  static ScanSpec Diff(BranchId a, BranchId b) {
    ScanSpec spec;
    spec.view = ScanView::kDiff;
    spec.branch = a;
    spec.diff_base = b;
    return spec;
  }

  ScanSpec& Where(Predicate p) {
    predicate = std::move(p);
    return *this;
  }
  ScanSpec& Project(std::vector<size_t> columns) {
    projection = std::move(columns);
    return *this;
  }
  ScanSpec& WithLimit(uint64_t n) {
    limit = n;
    return *this;
  }
  ScanSpec& Parallel(int threads) {
    parallelism = threads;
    return *this;
  }
};

/// Resolves column names to a projection list for ScanSpec::Project.
Result<std::vector<size_t>> ResolveProjection(
    const Schema& schema, const std::vector<std::string>& columns);

/// Rejects specs no engine can serve: unknown projection or predicate
/// columns, a kMulti view with no branches, a kHeads view (engines need
/// the facade to resolve the branch list).
Status ValidateScanSpec(const ScanSpec& spec, const Schema& schema);

/// Bytes a scan charges per examined row: the full record when
/// \p projection is empty, otherwise header byte + projected widths.
uint32_t ProjectedRowBytes(const Schema& schema,
                           const std::vector<size_t>& projection);

/// Work counters of one cursor (the engine-reported numbers behind
/// query::QueryStats).
struct ScanStats {
  /// Live rows of the view examined (post version-resolution,
  /// pre-predicate).
  uint64_t rows_scanned = 0;
  /// Rows that passed the predicate and were handed to the caller.
  uint64_t rows_emitted = 0;
  /// Projected bytes of the examined rows (the *logical* work measure —
  /// what a skip-free scan of the view would charge).
  uint64_t bytes_scanned = 0;
  /// Bytes actually fetched from storage pages after zone-map and
  /// compressed-page skipping: stored (possibly compressed) page bytes
  /// for every page the cursor pinned or had to inspect. This is the
  /// real-I/O measure the pushdown benchmarks gate on.
  uint64_t bytes_read = 0;
  /// Whole segment files proven irrelevant by their zone maps and never
  /// opened by the cursor.
  uint64_t segments_skipped = 0;
  /// Pages skipped without decoding: zone-map misses plus compressed
  /// pages whose strip evaluation proved zero matching rows.
  uint64_t pages_skipped = 0;
};

/// One row from a cursor. The record view stays valid until the next
/// call to Next(); `branches` is non-null only for multi-branch views and
/// holds positions into the cursor's branches() list.
struct ScanRow {
  RecordRef record;
  const std::vector<uint32_t>* branches = nullptr;
};

/// Pull cursor over the rows a ScanSpec selects.
class ScanCursor {
 public:
  virtual ~ScanCursor() = default;
  /// Advances to the next matching row; false at end or error (check
  /// status()).
  virtual bool Next(ScanRow* out) = 0;
  virtual const Status& status() const = 0;
  /// Work done so far; final after Next() returns false.
  virtual const ScanStats& stats() const = 0;
  /// The resolved branch list of a multi-branch scan (ScanRow::branches
  /// positions index into it); empty for single-version views.
  virtual const std::vector<BranchId>& branches() const;
};

/// Lifetime scan-work totals an engine embeds; cursors flush their
/// ScanStats here on destruction (surfaced as EngineStats::rows_scanned
/// / bytes_scanned).
class ScanCounters {
 public:
  void Add(const ScanStats& stats) {
    rows_.fetch_add(stats.rows_scanned, std::memory_order_relaxed);
    bytes_.fetch_add(stats.bytes_scanned, std::memory_order_relaxed);
    bytes_read_.fetch_add(stats.bytes_read, std::memory_order_relaxed);
    segments_skipped_.fetch_add(stats.segments_skipped,
                                std::memory_order_relaxed);
    pages_skipped_.fetch_add(stats.pages_skipped, std::memory_order_relaxed);
  }
  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  uint64_t segments_skipped() const {
    return segments_skipped_.load(std::memory_order_relaxed);
  }
  uint64_t pages_skipped() const {
    return pages_skipped_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> segments_skipped_{0};
  std::atomic<uint64_t> pages_skipped_{0};
};

/// A Predicate resolved against a schema for tight scan loops: column
/// offsets and types are pre-looked-up so the per-row check touches only
/// the record bytes — no schema indirection, no RecordRef construction
/// for rows that fail.
class PreparedPredicate {
 public:
  PreparedPredicate() = default;  ///< empty: matches everything
  PreparedPredicate(const Predicate& predicate, const Schema& schema);

  bool empty() const { return comparisons_.empty(); }

  /// \p record points at a full serialized record (header + columns).
  bool Matches(const char* record) const {
    for (const Cmp& cmp : comparisons_) {
      if (!MatchesOne(cmp, record)) return false;
    }
    return true;
  }

  /// Batch form of Matches for pinned pages: for i in [0, n),
  /// mask[i] &= Matches(record i). Records are packed with \p stride
  /// bytes between them. Numeric comparisons go through the columnar
  /// SIMD kernels (AVX2 when available); strings fall back to scalar.
  /// The caller seeds the mask (typically all-ones) and is responsible
  /// for tombstone exclusion.
  void MatchBatch(const char* base, uint32_t n, uint32_t stride,
                  uint8_t* mask) const;

  /// Could any live record in \p zone satisfy this predicate? False
  /// proves the zone (a page, segment, or tail) can be skipped whole.
  bool MayMatch(const columnar::ZoneMap& zone) const;

  /// The source comparisons, for evaluation on compressed pages
  /// (columnar::CountMatchesCompressed).
  const std::vector<Comparison>& raw_comparisons() const { return raw_; }

 private:
  struct Cmp {
    uint32_t column = 0;
    uint32_t offset = 0;
    uint32_t width = 0;
    FieldType type = FieldType::kInt32;
    CompareOp op = CompareOp::kEq;
    int64_t int_value = 0;
    double double_value = 0;
    std::string string_value;
  };

  static bool MatchesOne(const Cmp& cmp, const char* record);

  std::vector<Cmp> comparisons_;
  std::vector<Comparison> raw_;
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_SCAN_SPEC_H_
