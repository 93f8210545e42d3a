/// Concurrent transaction throughput on disjoint branches.
///
/// The striped write path promises that transactions on branches mapping
/// to different stripes never contend: each writer thread owns one
/// pre-created branch and pushes transactions of fresh inserts through
/// Begin/Insert/Commit while the sweep raises the thread count
/// 1 -> 2 -> 4 -> 8. With an engine-wide write mutex the aggregate
/// txns/sec would stay flat (every ApplyBatch serialized); with
/// per-stripe locking it should scale with the host's cores.
///
/// Each cell (engine x sync mode x thread count) is time-bounded: the
/// writers commit back-to-back until the cell's wall-clock budget (1 s
/// by default) runs out, so every cell measures a steady state, not
/// thread start-up. A cell reports the best of three such runs. Two sync
/// modes are swept: kOff (no log; the engines' own locks) and kNone
/// (every commit appends a WAL record without syncing; adds the log's
/// append path).
///
/// Each result line is machine-readable (one JSON object per line) so the
/// run_bench.sh wrapper's output array doubles as structured data:
///
///   {"engine": "TF", "sync": "off", "threads": 4, "txns": 61000,
///    "rows": 3050000, "seconds": 1.0002, "txns_per_sec": 60987.8,
///    "speedup_vs_1": 3.41}
///
/// host_cores reports std::thread::hardware_concurrency(): real parallel
/// speedup needs real cores, so read speedup_vs_1 against that number.
///
/// DECIBEL_SCALE multiplies the seconds per run. At 1 s a run writes up
/// to ~10M rows (~1 GB of heap files under /tmp, ~1 GB peak RSS); each
/// run's database is deleted before the next starts.

#include <cinttypes>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace decibel {
namespace bench {
namespace {

constexpr uint64_t kRowsPerTxn = 50;

struct SweepPoint {
  uint64_t txns = 0;
  double seconds = 0;
  double TxnsPerSec() const {
    return seconds > 0 ? static_cast<double>(txns) / seconds : 0;
  }
};

/// One measured cell: \p threads writers, each on its own branch, each
/// committing transactions of kRowsPerTxn inserts until \p budget_s
/// seconds have passed.
Result<SweepPoint> RunPoint(EngineType engine, wal::SyncMode sync_mode,
                            int threads, double budget_s) {
  DECIBEL_ASSIGN_OR_RETURN(
      ScopedDb scoped, FreshDb(engine, "conc_txn", /*compress_pages=*/false, sync_mode));
  Decibel* db = scoped.db.get();

  // A little shared ancestry so the branches are real branches, not
  // independent tables.
  Record rec(&db->schema());
  for (int64_t pk = 0; pk < 100; ++pk) {
    rec.SetPk(pk);
    rec.SetInt32(1, 0);
    DECIBEL_RETURN_NOT_OK(db->InsertInto(kMasterBranch, rec));
  }
  std::vector<BranchId> branches;
  Session s = db->NewSession();
  for (int t = 0; t < threads; ++t) {
    DECIBEL_RETURN_NOT_OK(db->Use(&s, kMasterBranch));
    DECIBEL_ASSIGN_OR_RETURN(BranchId b,
                             db->Branch("w" + std::to_string(t), &s));
    branches.push_back(b);
  }

  std::atomic<bool> stop{false};
  std::vector<Status> failures(threads, Status::OK());
  std::vector<uint64_t> committed_txns(threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  Stopwatch timer;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Record row(&db->schema());
      const int64_t base = 1000 + static_cast<int64_t>(t) * 1000000000;
      for (uint64_t round = 0; !stop.load(std::memory_order_relaxed);
           ++round) {
        auto txn = db->Begin(branches[t]);
        if (!txn.ok()) {
          failures[t] = txn.status();
          return;
        }
        txn->batch()->Reserve(kRowsPerTxn);
        for (uint64_t i = 0; i < kRowsPerTxn; ++i) {
          row.SetPk(base + static_cast<int64_t>(round * kRowsPerTxn + i));
          row.SetInt32(1, static_cast<int32_t>(round));
          Status st = txn->Insert(row);
          if (!st.ok()) {
            failures[t] = st;
            return;
          }
        }
        Status committed = txn->Commit();
        while (committed.IsAborted()) committed = txn->Commit();
        if (!committed.ok()) {
          failures[t] = committed;
          return;
        }
        ++committed_txns[t];
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(budget_s));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  SweepPoint point;
  point.seconds = timer.ElapsedSeconds();
  for (const Status& st : failures) DECIBEL_RETURN_NOT_OK(st);

  // Correctness gate: every branch holds exactly its own writes.
  for (int t = 0; t < threads; ++t) {
    DECIBEL_ASSIGN_OR_RETURN(auto cursor,
                             db->NewScan(ScanSpec::Branch(branches[t])));
    ScanRow row_ref;
    uint64_t count = 0;
    while (cursor->Next(&row_ref)) ++count;
    DECIBEL_RETURN_NOT_OK(cursor->status());
    if (count != 100 + committed_txns[t] * kRowsPerTxn) {
      return Status::Corruption("branch " + std::to_string(branches[t]) +
                                " lost rows: " + std::to_string(count));
    }
    point.txns += committed_txns[t];
  }
  return point;
}

void Run() {
  const double budget_s = 1.0 * ScaleFactor();
  const int sweep[] = {1, 2, 4, 8};
  const std::pair<wal::SyncMode, const char*> sync_modes[] = {
      {wal::SyncMode::kOff, "off"}, {wal::SyncMode::kNone, "none"}};
  const unsigned host_cores = std::thread::hardware_concurrency();

  printf("=== concurrent disjoint-branch transactions "
         "(%.1f s per cell, %" PRIu64 " rows per txn, host_cores=%u) ===\n",
         budget_s, kRowsPerTxn, host_cores);
  printf("{\"host_cores\": %u, \"seconds_per_cell\": %.1f"
         ", \"rows_per_txn\": %" PRIu64 "}\n",
         host_cores, budget_s, kRowsPerTxn);

  for (EngineType engine : AllEngines()) {
    for (const auto& [sync_mode, sync_name] : sync_modes) {
      double base_txns_per_sec = 0;
      for (int threads : sweep) {
        // Best of three: each run is a fresh database, so the fastest is
        // the one least disturbed by the rest of the host.
        SweepPoint p;
        for (int rep = 0; rep < 3; ++rep) {
          BENCH_ASSIGN_OR_DIE(SweepPoint run,
                              RunPoint(engine, sync_mode, threads, budget_s));
          if (run.TxnsPerSec() > p.TxnsPerSec()) p = run;
        }
        if (threads == 1) base_txns_per_sec = p.TxnsPerSec();
        const double speedup = base_txns_per_sec > 0
                                   ? p.TxnsPerSec() / base_txns_per_sec
                                   : 0.0;
        printf("{\"engine\": \"%s\", \"sync\": \"%s\", \"threads\": %d"
               ", \"txns\": %" PRIu64 ", \"rows\": %" PRIu64
               ", \"seconds\": %.4f, \"txns_per_sec\": %.1f"
               ", \"speedup_vs_1\": %.2f}\n",
               ShortName(engine), sync_name, threads, p.txns,
               p.txns * kRowsPerTxn, p.seconds, p.TxnsPerSec(), speedup);
        fflush(stdout);
      }
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace decibel

int main() {
  decibel::bench::Run();
  return 0;
}
