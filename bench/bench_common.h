#ifndef DECIBEL_BENCH_BENCH_COMMON_H_
#define DECIBEL_BENCH_BENCH_COMMON_H_

/// Shared infrastructure for the paper-reproduction benchmarks. Every
/// binary in bench/ regenerates one table or figure from §5 of the paper
/// at laptop scale: the paper ran 100 GB datasets with 1 KB records on a
/// server; these default to a few thousand ~110-byte records per branch so
/// the whole suite finishes in minutes. Scale up with
///
///   DECIBEL_SCALE=N      multiplies operations per branch (default 1)
///   DECIBEL_BRANCHES=N   overrides the branch counts where meaningful
///
/// Absolute numbers will differ from the paper; the *shape* (which engine
/// wins, where, by roughly how much) is what EXPERIMENTS.md compares.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib/workload.h"
#include "common/io.h"
#include "common/stopwatch.h"
#include "core/decibel.h"

namespace decibel {
namespace bench {

inline int EnvInt(const char* name, int fallback) {
  const char* v = getenv(name);
  return v != nullptr ? atoi(v) : fallback;
}

inline int ScaleFactor() { return std::max(1, EnvInt("DECIBEL_SCALE", 1)); }

/// Benchmark schema: 25 x 4-byte integer columns (scaled down from the
/// paper's 250), ~110-byte records.
inline Schema BenchSchema() { return Schema::MakeBenchmark(25, 4); }

/// Base operations per branch before scaling.
inline uint64_t BaseOps() { return 2000; }

struct ScopedDb {
  std::string path;
  std::unique_ptr<Decibel> db;

  ScopedDb() = default;
  ScopedDb(ScopedDb&& other) noexcept
      : path(std::move(other.path)), db(std::move(other.db)) {
    other.path.clear();
  }
  ScopedDb& operator=(ScopedDb&& other) noexcept {
    path = std::move(other.path);
    db = std::move(other.db);
    other.path.clear();
    return *this;
  }
  ScopedDb(const ScopedDb&) = delete;
  ScopedDb& operator=(const ScopedDb&) = delete;

  ~ScopedDb() {
    db.reset();
    if (!path.empty()) RemoveDirRecursive(path).ok();
  }
};

/// Opens a fresh database for \p engine under /tmp. \p compress_pages
/// routes sealed pages through the columnar page codec. No WAL by default
/// (kOff): the paper benches measure raw engine cost.
inline Result<ScopedDb> FreshDb(EngineType engine, const std::string& tag,
                                int scan_threads = 0,
                                bool compress_pages = false,
                                wal::SyncMode sync_mode = wal::SyncMode::kOff) {
  static int counter = 0;
  ScopedDb scoped;
  scoped.path = "/tmp/decibel_bench_" + std::to_string(::getpid()) + "_" +
                tag + "_" + std::to_string(counter++);
  DECIBEL_RETURN_NOT_OK(RemoveDirRecursive(scoped.path));
  DecibelOptions options;
  options.engine = engine;
  options.page_size = 64 << 10;  // 64 KiB pages at this record scale
  options.buffer_pool_bytes = 64 << 20;
  options.scan_threads = scan_threads;
  options.compress_pages = compress_pages;
  options.sync_mode = sync_mode;
  DECIBEL_ASSIGN_OR_RETURN(scoped.db,
                           Decibel::Open(scoped.path, BenchSchema(), options));
  return scoped;
}

inline WorkloadConfig BaseConfig(Strategy strategy, int num_branches) {
  WorkloadConfig config;
  config.strategy = strategy;
  config.num_branches = num_branches;
  config.ops_per_branch = BaseOps() * static_cast<uint64_t>(ScaleFactor());
  config.commit_every = 500;
  config.seed = 42;
  return config;
}

inline const std::vector<EngineType>& AllEngines() {
  static const std::vector<EngineType> kEngines = {
      EngineType::kVersionFirst, EngineType::kTupleFirst,
      EngineType::kHybrid};
  return kEngines;
}

inline const char* ShortName(EngineType engine) {
  switch (engine) {
    case EngineType::kVersionFirst:
      return "VF";
    case EngineType::kTupleFirst:
      return "TF";
    case EngineType::kHybrid:
      return "HY";
  }
  return "?";
}

inline double Mb(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ---------------------------------------------------- load-path measurement

/// One row of a batched-vs-per-op load comparison (bench/load_paths.cc).
struct LoadPathResult {
  double seconds = 0;
  uint64_t records = 0;
  double RecordsPerSec() const {
    return seconds > 0 ? static_cast<double>(records) / seconds : 0;
  }
};

/// Loads \p num_records fresh records into master one record at a time —
/// each insert is a one-op transaction paying its own lock round-trip and
/// engine dispatch.
inline Result<LoadPathResult> LoadMasterPerOp(Decibel* db,
                                              uint64_t num_records) {
  LoadPathResult out;
  out.records = num_records;
  Record rec(&db->schema());
  Stopwatch timer;
  for (uint64_t i = 0; i < num_records; ++i) {
    rec.SetPk(static_cast<int64_t>(i));
    rec.SetInt32(1, static_cast<int32_t>(i));
    DECIBEL_RETURN_NOT_OK(db->InsertInto(kMasterBranch, rec));
  }
  out.seconds = timer.ElapsedSeconds();
  return out;
}

/// Loads \p num_records fresh records into master through WriteBatch
/// transactions of \p batch_size ops: one lock acquisition and one
/// engine ApplyBatch pass per transaction.
inline Result<LoadPathResult> LoadMasterBatched(Decibel* db,
                                                uint64_t num_records,
                                                uint64_t batch_size) {
  LoadPathResult out;
  out.records = num_records;
  Record rec(&db->schema());
  Stopwatch timer;
  for (uint64_t start = 0; start < num_records; start += batch_size) {
    const uint64_t end = std::min(num_records, start + batch_size);
    DECIBEL_ASSIGN_OR_RETURN(Transaction txn, db->Begin(kMasterBranch));
    txn.batch()->Reserve(end - start);
    for (uint64_t i = start; i < end; ++i) {
      rec.SetPk(static_cast<int64_t>(i));
      rec.SetInt32(1, static_cast<int32_t>(i));
      DECIBEL_RETURN_NOT_OK(txn.Insert(rec));
    }
    DECIBEL_RETURN_NOT_OK(txn.Commit());
  }
  out.seconds = timer.ElapsedSeconds();
  return out;
}

/// Dies with a message on error — benchmarks have no one to report to.
#define BENCH_CHECK_OK(expr)                                          \
  do {                                                                \
    auto _s = (expr);                                                 \
    if (!_s.ok()) {                                                   \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,   \
                   _s.ToString().c_str());                            \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

#define BENCH_ASSIGN_OR_DIE(lhs, rexpr)                               \
  BENCH_ASSIGN_OR_DIE_IMPL(                                           \
      DECIBEL_ASSIGN_OR_RETURN_NAME(_bench_tmp_, __COUNTER__), lhs, rexpr)

#define BENCH_ASSIGN_OR_DIE_IMPL(tmp, lhs, rexpr)                     \
  auto tmp = (rexpr);                                                 \
  if (!tmp.ok()) {                                                    \
    std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,     \
                 tmp.status().ToString().c_str());                    \
    std::exit(1);                                                     \
  }                                                                   \
  lhs = std::move(tmp).MoveValueUnsafe();

}  // namespace bench
}  // namespace decibel

#endif  // DECIBEL_BENCH_BENCH_COMMON_H_
