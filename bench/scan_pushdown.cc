/// Scan pushdown, segment/page skipping, and point lookups: what the
/// unified read path plus the columnar statistics subsystem buy.
///
/// Three comparisons per engine over a pre-loaded master branch:
///
///  1. Point lookup — the seed-era way (full branch scan iteration until
///     the key turns up) vs Decibel::Get. All three engines now answer
///     Get through a pk index (version-first gained one with the
///     columnar subsystem); the summary line reports the VF/TF ratio the
///     release gate watches.
///
///  2. Filtered scan, selectivity sweep — "filter on top" (pull every
///     row through the cursor boundary, test in the client) vs the same
///     predicate pushed into the engine. Pushdown now consults zone maps
///     before touching pages, so at high selectivity most pages are
///     skipped without decoding; the per-row counters report how many
///     segments/pages were skipped and the bytes actually read. Each
///     engine's best speedup over the sweep is a summary line the release
///     gate checks.
///
///  3. Compressed-scan equivalence — the same content loaded with
///     compress_pages on and off must scan byte-identically; the
///     greppable "compressed scan matches uncompressed" verdict per
///     engine feeds the release gate.
///
/// Caches are warmed before the measured runs (one throwaway full scan):
/// both paths read the same pages through the same buffer pool, and the
/// contrast under test is the CPU read path plus skipping, not disk.
///
/// DECIBEL_SCALE multiplies the record count (default 1M records).

#include <cinttypes>

#include <map>

#include "bench_common.h"
#include "query/predicate.h"

namespace decibel {
namespace bench {
namespace {

/// c1 = record index at load time, so "c1 < k" selects exactly k rows
/// and page zone maps over c1 are perfectly selective. c2 cycles through
/// a small domain so sealed pages compress under the columnar codec.
Result<uint64_t> LoadSequential(Decibel* db, uint64_t num_records) {
  Record rec(&db->schema());
  constexpr uint64_t kBatch = 10000;
  for (uint64_t start = 0; start < num_records; start += kBatch) {
    const uint64_t end = std::min(num_records, start + kBatch);
    DECIBEL_ASSIGN_OR_RETURN(Transaction txn, db->Begin(kMasterBranch));
    txn.batch()->Reserve(end - start);
    for (uint64_t i = start; i < end; ++i) {
      rec.SetPk(static_cast<int64_t>(i));
      rec.SetInt32(1, static_cast<int32_t>(i));
      rec.SetInt32(2, static_cast<int32_t>(i % 97));
      DECIBEL_RETURN_NOT_OK(txn.Insert(rec));
    }
    DECIBEL_RETURN_NOT_OK(txn.Commit());
  }
  DECIBEL_RETURN_NOT_OK(db->CommitBranch(kMasterBranch).status());
  return num_records;
}

/// Seed-era point lookup: scan the branch until the key shows up.
Result<double> TimeFullScanLookup(Decibel* db, const std::vector<int64_t>& pks) {
  Stopwatch timer;
  for (int64_t pk : pks) {
    DECIBEL_ASSIGN_OR_RETURN(auto it,
                             db->NewScan(ScanSpec::Branch(kMasterBranch)));
    ScanRow row;
    bool found = false;
    while (it->Next(&row)) {
      if (row.record.pk() == pk) {
        found = true;
        break;
      }
    }
    DECIBEL_RETURN_NOT_OK(it->status());
    if (!found) return Status::NotFound("lookup lost pk");
  }
  return timer.ElapsedSeconds() / static_cast<double>(pks.size());
}

Result<double> TimeGetLookup(Decibel* db, const std::vector<int64_t>& pks) {
  Stopwatch timer;
  for (int64_t pk : pks) {
    DECIBEL_ASSIGN_OR_RETURN(Record rec, db->Get(kMasterBranch, pk));
    (void)rec;
  }
  return timer.ElapsedSeconds() / static_cast<double>(pks.size());
}

/// Filter on top: an unfiltered cursor pulls every row; the client
/// evaluates the predicate.
Result<std::pair<double, uint64_t>> TimeFilterOnTop(Decibel* db,
                                                    const Predicate& pred) {
  Stopwatch timer;
  DECIBEL_ASSIGN_OR_RETURN(auto it,
                           db->NewScan(ScanSpec::Branch(kMasterBranch)));
  uint64_t matches = 0;
  ScanRow row;
  while (it->Next(&row)) {
    if (pred.Matches(row.record)) ++matches;
  }
  DECIBEL_RETURN_NOT_OK(it->status());
  return std::make_pair(timer.ElapsedSeconds(), matches);
}

struct PushdownResult {
  double seconds = 0;
  uint64_t matches = 0;
  ScanStats stats;
};

Result<PushdownResult> TimePushdown(Decibel* db, const Predicate& pred) {
  PushdownResult out;
  Stopwatch timer;
  DECIBEL_ASSIGN_OR_RETURN(
      auto cursor, db->NewScan(ScanSpec::Branch(kMasterBranch).Where(pred)));
  ScanRow row;
  while (cursor->Next(&row)) ++out.matches;
  DECIBEL_RETURN_NOT_OK(cursor->status());
  out.seconds = timer.ElapsedSeconds();
  out.stats = cursor->stats();
  return out;
}

/// Materializes every row of master as raw record bytes, keyed by pk.
Result<std::map<int64_t, std::string>> Snapshot(Decibel* db) {
  std::map<int64_t, std::string> rows;
  DECIBEL_ASSIGN_OR_RETURN(auto it,
                           db->NewScan(ScanSpec::Branch(kMasterBranch)));
  ScanRow row;
  while (it->Next(&row)) {
    rows[row.record.pk()] = row.record.data().ToString();
  }
  DECIBEL_RETURN_NOT_OK(it->status());
  return rows;
}

/// Loads the same content compressed and uncompressed and compares the
/// full-scan and pushdown-scan results byte for byte.
Result<bool> CompressedScansMatch(EngineType engine, uint64_t records) {
  DECIBEL_ASSIGN_OR_RETURN(ScopedDb plain, FreshDb(engine, "cmp_plain"));
  DECIBEL_ASSIGN_OR_RETURN(
      ScopedDb packed,
      FreshDb(engine, "cmp_packed", /*compress_pages=*/true));
  DECIBEL_RETURN_NOT_OK(LoadSequential(plain.db.get(), records).status());
  DECIBEL_RETURN_NOT_OK(LoadSequential(packed.db.get(), records).status());
  // A handful of updates and deletes so tombstones and rewritten tails
  // are part of the comparison.
  for (Decibel* db : {plain.db.get(), packed.db.get()}) {
    Record rec(&db->schema());
    for (int64_t pk = 100; pk < 130; ++pk) {
      rec.SetPk(pk);
      rec.SetInt32(1, -7);
      DECIBEL_RETURN_NOT_OK(db->UpdateIn(kMasterBranch, rec));
    }
    for (int64_t pk = 500; pk < 510; ++pk) {
      DECIBEL_RETURN_NOT_OK(db->DeleteFrom(kMasterBranch, pk));
    }
    DECIBEL_RETURN_NOT_OK(db->Flush());
  }
  DECIBEL_ASSIGN_OR_RETURN(auto a, Snapshot(plain.db.get()));
  DECIBEL_ASSIGN_OR_RETURN(auto b, Snapshot(packed.db.get()));
  if (a != b) return false;
  DECIBEL_ASSIGN_OR_RETURN(
      Predicate pred, Predicate::Compare(plain.db->schema(), "c1",
                                         CompareOp::kLt,
                                         static_cast<int64_t>(records) / 10));
  DECIBEL_ASSIGN_OR_RETURN(auto pa, TimePushdown(plain.db.get(), pred));
  DECIBEL_ASSIGN_OR_RETURN(auto pb, TimePushdown(packed.db.get(), pred));
  return pa.matches == pb.matches;
}

void Run() {
  const uint64_t records = 1000000 * static_cast<uint64_t>(ScaleFactor());
  const double selectivities[] = {0.001, 0.01, 0.10, 0.50};
  constexpr int kReps = 3;

  printf("=== scan pushdown + point lookups (%" PRIu64 " records) ===\n",
         records);

  double vf_get_us = 0, tf_get_us = 0;
  std::map<EngineType, double> best_speedup;  // over the selectivities
  for (EngineType engine : AllEngines()) {
    BENCH_ASSIGN_OR_DIE(ScopedDb scoped, FreshDb(engine, "pushdown"));
    Decibel* db = scoped.db.get();
    BENCH_CHECK_OK(LoadSequential(db, records).status());

    // Warm the buffer pool so both sides measure the CPU path.
    BENCH_CHECK_OK(TimeFilterOnTop(db, Predicate()).status());

    // --- point lookups -------------------------------------------------
    std::vector<int64_t> scan_pks, get_pks;
    Random rng(7);
    for (int i = 0; i < 3; ++i) {
      scan_pks.push_back(static_cast<int64_t>(rng.Uniform(records)));
    }
    for (int i = 0; i < 2000; ++i) {
      get_pks.push_back(static_cast<int64_t>(rng.Uniform(records)));
    }
    double full_scan_s = 0, get_s = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      BENCH_ASSIGN_OR_DIE(double f, TimeFullScanLookup(db, scan_pks));
      BENCH_ASSIGN_OR_DIE(double g, TimeGetLookup(db, get_pks));
      if (rep == 0 || f < full_scan_s) full_scan_s = f;
      if (rep == 0 || g < get_s) get_s = g;
    }
    printf("%-4s lookup  full-scan %10.1f us   Get %8.2f us   speedup %8.1fx\n",
           ShortName(engine), full_scan_s * 1e6, get_s * 1e6,
           get_s > 0 ? full_scan_s / get_s : 0.0);
    if (engine == EngineType::kVersionFirst) vf_get_us = get_s * 1e6;
    if (engine == EngineType::kTupleFirst) tf_get_us = get_s * 1e6;

    // --- filtered scans ------------------------------------------------
    for (double sel : selectivities) {
      const int64_t threshold =
          static_cast<int64_t>(sel * static_cast<double>(records));
      BENCH_ASSIGN_OR_DIE(
          Predicate pred,
          Predicate::Compare(db->schema(), "c1", CompareOp::kLt, threshold));
      double top_s = 0, push_s = 0;
      uint64_t top_rows = 0;
      PushdownResult push;
      for (int rep = 0; rep < kReps; ++rep) {
        BENCH_ASSIGN_OR_DIE(auto top, TimeFilterOnTop(db, pred));
        BENCH_ASSIGN_OR_DIE(PushdownResult p, TimePushdown(db, pred));
        if (rep == 0 || top.first < top_s) top_s = top.first;
        if (rep == 0 || p.seconds < push_s) push_s = p.seconds;
        top_rows = top.second;
        push = p;
      }
      if (top_rows != push.matches) {
        fprintf(stderr, "FATAL: row mismatch (%" PRIu64 " vs %" PRIu64 ")\n",
                top_rows, push.matches);
        exit(1);
      }
      const double speedup = push_s > 0 ? top_s / push_s : 0.0;
      best_speedup[engine] = std::max(best_speedup[engine], speedup);
      printf("%-4s scan sel=%5.1f%%  filter-on-top %8.2f ms   pushdown "
             "%8.2f ms   speedup %6.2fx   (%" PRIu64 " rows, %" PRIu64
             " segs + %" PRIu64 " pages skipped, %.1f MB read)\n",
             ShortName(engine), sel * 100, top_s * 1e3, push_s * 1e3,
             speedup, push.matches, push.stats.segments_skipped,
             push.stats.pages_skipped, Mb(push.stats.bytes_read));
    }
  }

  // --- compressed-scan equivalence (release-gated) ---------------------
  const uint64_t cmp_records = std::min<uint64_t>(records, 200000);
  for (EngineType engine : AllEngines()) {
    BENCH_ASSIGN_OR_DIE(bool match, CompressedScansMatch(engine, cmp_records));
    printf("%s compressed scan matches uncompressed: %s\n",
           ShortName(engine), match ? "yes" : "NO");
  }

  // Greppable summary lines for the release gate.
  for (EngineType engine : AllEngines()) {
    printf("%s pushdown speedup: %.2fx\n", ShortName(engine),
           best_speedup[engine]);
  }
  printf("VF/TF Get ratio: %.2fx\n",
         tf_get_us > 0 ? vf_get_us / tf_get_us : 0.0);
}

}  // namespace
}  // namespace bench
}  // namespace decibel

int main() {
  decibel::bench::Run();
  return 0;
}
