/// WAL overhead: durability-mode sweep + recovery time per WAL MB.
///
/// Part 1 loads the same batched workload under each durability level —
/// SyncMode kOff (no log records: the engine-only baseline), then kNone /
/// kFlush / kFsync — and reports throughput, the WAL frame bytes appended
/// (DecibelStats::wal_bytes_appended, so a kFsync segment's zero-filled
/// tail does not count), and the slowdown against the baseline. This
/// prices the write-ahead log: kNone is the pure framing/copy cost,
/// kFlush adds a page-cache push per commit, kFsync adds the
/// group-committed fdatasync that makes acknowledged commits survive
/// power loss.
///
/// Part 2 measures cold-start recovery: a crash-consistent snapshot of a
/// live database (taken without closing it, so the WAL tail is intact) is
/// reopened, and the replay cost is reported as seconds per WAL MB across
/// growing log sizes.
///
/// DECIBEL_SCALE multiplies the record counts (default 20k / mode).

#include <sys/stat.h>

#include "bench_common.h"

namespace decibel {
namespace bench {
namespace {

Status CopyDirRecursive(const std::string& src, const std::string& dst) {
  DECIBEL_RETURN_NOT_OK(CreateDir(dst));
  DECIBEL_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(src));
  for (const std::string& name : names) {
    const std::string from = JoinPath(src, name);
    const std::string to = JoinPath(dst, name);
    struct ::stat st;
    if (::stat(from.c_str(), &st) != 0) {
      return Status::IOError("stat " + from);
    }
    if (S_ISDIR(st.st_mode)) {
      DECIBEL_RETURN_NOT_OK(CopyDirRecursive(from, to));
    } else {
      DECIBEL_ASSIGN_OR_RETURN(std::string data, ReadFileToString(from));
      DECIBEL_RETURN_NOT_OK(WriteStringToFile(to, data));
    }
  }
  return Status::OK();
}

struct Mode {
  const char* name;
  wal::SyncMode sync;
};

Result<ScopedDb> FreshDurableDb(const Mode& mode, const std::string& tag) {
  static int counter = 0;
  ScopedDb scoped;
  scoped.path = "/tmp/decibel_bench_" + std::to_string(::getpid()) + "_" +
                tag + "_" + std::to_string(counter++);
  DECIBEL_RETURN_NOT_OK(RemoveDirRecursive(scoped.path));
  DecibelOptions options;
  options.engine = EngineType::kHybrid;
  options.page_size = 64 << 10;
  options.buffer_pool_bytes = 64 << 20;
  options.sync_mode = mode.sync;
  DECIBEL_ASSIGN_OR_RETURN(scoped.db,
                           Decibel::Open(scoped.path, BenchSchema(), options));
  return scoped;
}

/// Batched load into master: transactions of \p batch records, a version
/// commit per transaction. Returns elapsed seconds.
Result<double> Load(Decibel* db, uint64_t records, uint64_t batch) {
  Stopwatch watch;
  uint64_t pk = 0;
  while (pk < records) {
    DECIBEL_ASSIGN_OR_RETURN(Transaction txn, db->Begin(kMasterBranch));
    for (uint64_t i = 0; i < batch && pk < records; ++i, ++pk) {
      Record rec(&db->schema());
      rec.SetPk(static_cast<int64_t>(pk));
      rec.SetInt32(1, static_cast<int32_t>(pk));
      DECIBEL_RETURN_NOT_OK(txn.Insert(rec));
    }
    DECIBEL_RETURN_NOT_OK(txn.Commit());
    DECIBEL_RETURN_NOT_OK(db->CommitBranch(kMasterBranch).status());
  }
  return watch.ElapsedSeconds();
}

void RunSyncModeSweep(uint64_t records) {
  const Mode kModes[] = {
      {"off", wal::SyncMode::kOff},
      {"none", wal::SyncMode::kNone},
      {"flush", wal::SyncMode::kFlush},
      {"fsync", wal::SyncMode::kFsync},
  };
  printf("=== WAL overhead: sync-mode sweep (%llu records, hybrid) ===\n",
         static_cast<unsigned long long>(records));
  printf("%-6s %10s %12s %9s %9s\n", "mode", "seconds", "records/s",
         "wal_mb", "vs_off");
  double baseline = 0;
  for (const Mode& mode : kModes) {
    BENCH_ASSIGN_OR_DIE(ScopedDb scoped, FreshDurableDb(mode, "wal_sweep"));
    BENCH_ASSIGN_OR_DIE(double seconds,
                        Load(scoped.db.get(), records, /*batch=*/500));
    const double wal_mb = Mb(scoped.db->Stats().wal_bytes_appended);
    if (mode.sync == wal::SyncMode::kOff) baseline = seconds;
    printf("%-6s %10.3f %12.0f %9.2f %8.2fx\n", mode.name, seconds,
           records / seconds, wal_mb,
           baseline > 0 ? seconds / baseline : 1.0);
  }
}

void RunRecoverySweep(uint64_t base_records) {
  printf("\n=== recovery time per WAL MB (crash-consistent reopen) ===\n");
  printf("%10s %9s %12s %10s\n", "records", "wal_mb", "open_sec", "mb/s");
  for (int mult : {1, 4, 16}) {
    const uint64_t records = base_records * static_cast<uint64_t>(mult);
    const Mode mode = {"flush", wal::SyncMode::kFlush};
    BENCH_ASSIGN_OR_DIE(ScopedDb live, FreshDurableDb(mode, "wal_recov"));
    BENCH_ASSIGN_OR_DIE(double unused,
                        Load(live.db.get(), records, /*batch=*/500));
    (void)unused;
    // Snapshot while the database is open: the WAL tail has not been
    // folded into a checkpoint, so reopening must replay all of it.
    ScopedDb crash;
    crash.path = live.path + "_crash";
    RemoveDirRecursive(crash.path).ok();
    BENCH_CHECK_OK(CopyDirRecursive(live.path, crash.path));
    const double wal_mb = Mb(DirSizeBytes(JoinPath(crash.path, "wal")));

    DecibelOptions options;
    options.engine = EngineType::kHybrid;
    options.page_size = 64 << 10;
    options.buffer_pool_bytes = 64 << 20;
    options.sync_mode = wal::SyncMode::kFlush;
    Stopwatch watch;
    BENCH_ASSIGN_OR_DIE(crash.db, Decibel::Open(crash.path, options));
    const double open_sec = watch.ElapsedSeconds();
    printf("%10llu %9.2f %12.3f %10.1f\n",
           static_cast<unsigned long long>(records), wal_mb, open_sec,
           open_sec > 0 ? wal_mb / open_sec : 0.0);
  }
}

void Run() {
  const uint64_t records = 20000 * static_cast<uint64_t>(ScaleFactor());
  RunSyncModeSweep(records);
  RunRecoverySweep(records / 4);
}

}  // namespace
}  // namespace bench
}  // namespace decibel

int main() {
  decibel::bench::Run();
  return 0;
}
