/// Durable load driver for crash-recovery smoke testing.
///
/// `load` opens a database in fsync durability and streams records into
/// three branches, one loader thread per branch, each committing its
/// branch every few rows. The threads' WAL syncs overlap. After each
/// acknowledged commit a thread durably records its branch's high-water
/// mark in that branch's sidecar progress file. The process is designed
/// to be SIGKILLed mid-load.
///
/// `verify` reopens the same directory — recovering from the manifest,
/// checkpoint, and WAL tail — and checks that every record up to each
/// branch's acknowledged high-water mark survived, on the right branch,
/// with the right values.
///
///   $ ./durable_load load <dir> [num_records]     # kill -9 me
///   $ ./durable_load verify <dir>                 # exit 0 iff intact
///
/// The CI release job runs exactly this pair around a SIGKILL.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "core/decibel.h"

using namespace decibel;

namespace {

/// Record i belongs to branch i % kBranches; branch 0 is master.
constexpr int kBranches = 3;

Record Row(const Schema& schema, int64_t pk, int32_t value) {
  Record rec(&schema);
  rec.SetPk(pk);
  for (size_t c = 1; c < schema.num_columns(); ++c) {
    rec.SetInt32(c, value);
  }
  return rec;
}

DecibelOptions LoadOptions() {
  DecibelOptions options;
  options.sync_mode = wal::SyncMode::kFsync;
  options.page_size = 1 << 16;
  // Checkpoint aggressively so a kill lands between checkpoints too.
  options.checkpoint_interval_bytes = 1 << 20;
  return options;
}

std::string BranchName(int b) {
  return b == 0 ? "master" : "dev" + std::to_string(b);
}

std::string ProgressPath(const std::string& dir, int b) {
  return dir + ".progress." + BranchName(b);
}

/// Loads every record i < num_records with i % kBranches == b into
/// \p branch, committing every 4 rows and recording progress after each
/// acknowledged commit.
bool LoadBranch(Decibel* db, const std::string& dir, int b, BranchId branch,
                int num_records) {
  int loaded = 0;
  for (int i = b; i < num_records; i += kBranches) {
    Status s = db->InsertInto(branch, Row(db->schema(), i, i));
    if (!s.ok()) {
      fprintf(stderr, "insert %d failed: %s\n", i, s.ToString().c_str());
      return false;
    }
    if (++loaded % 4 != 0) continue;
    auto c = db->CommitBranch(branch);
    if (!c.ok()) {
      fprintf(stderr, "commit at %d failed: %s\n", i,
              c.status().ToString().c_str());
      return false;
    }
    // The commit is acknowledged: record the high-water mark with the
    // same durability the commit itself has.
    s = AtomicWriteFile(ProgressPath(dir, b), std::to_string(i),
                        /*sync=*/true);
    if (!s.ok()) {
      fprintf(stderr, "progress write failed: %s\n", s.ToString().c_str());
      return false;
    }
    if (b == 0 && loaded % 256 == 0) {
      printf("acked %d\n", i);
      fflush(stdout);
    }
  }
  return true;
}

int RunLoad(const std::string& dir, int num_records) {
  auto db = Decibel::Open(dir, Schema::MakeBenchmark(3), LoadOptions());
  if (!db.ok()) {
    fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::vector<BranchId> branches = {kMasterBranch};
  for (int b = 1; b < kBranches; ++b) {
    auto child =
        (*db)->BranchAt(BranchName(b), (*db)->Head(kMasterBranch));
    if (!child.ok()) {
      fprintf(stderr, "branch failed: %s\n",
              child.status().ToString().c_str());
      return 1;
    }
    branches.push_back(*child);
  }
  std::atomic<bool> ok{true};
  std::vector<std::thread> loaders;
  for (int b = 0; b < kBranches; ++b) {
    loaders.emplace_back([&, b] {
      if (!LoadBranch(db->get(), dir, b, branches[b], num_records)) {
        ok = false;
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  if (!ok) return 1;
  const DecibelStats stats = (*db)->Stats();
  printf("load complete: %d records, %llu WAL fdatasyncs, at most %llu at "
         "once\n",
         num_records, static_cast<unsigned long long>(stats.wal_syncs),
         static_cast<unsigned long long>(stats.wal_syncs_in_flight_max));
  return 0;
}

int RunVerify(const std::string& dir) {
  auto db = Decibel::Open(dir, LoadOptions());
  if (!db.ok()) {
    fprintf(stderr, "reopen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  int verified = 0;
  for (int b = 0; b < kBranches; ++b) {
    auto note = ReadFileToString(ProgressPath(dir, b));
    if (!note.ok()) {
      fprintf(stderr, "no progress file for %s: %s\n", BranchName(b).c_str(),
              note.status().ToString().c_str());
      return 1;
    }
    const int acked = std::atoi(note->c_str());
    auto branch = (*db)->FindBranchByName(BranchName(b));
    if (!branch.ok()) {
      fprintf(stderr, "branch '%s' lost\n", BranchName(b).c_str());
      return 1;
    }
    for (int i = b; i <= acked; i += kBranches) {
      auto rec = (*db)->Get(*branch, i);
      if (!rec.ok()) {
        fprintf(stderr, "record %d lost: %s\n", i,
                rec.status().ToString().c_str());
        return 1;
      }
      if (rec->ref().GetInt32(1) != i) {
        fprintf(stderr, "record %d corrupt: got %d\n", i,
                rec->ref().GetInt32(1));
        return 1;
      }
      ++verified;
    }
    printf("%s: acked through record %d\n", BranchName(b).c_str(), acked);
  }
  printf("verified %d acknowledged records across %d branches\n", verified,
         kBranches);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    fprintf(stderr, "usage: %s load <dir> [num_records] | verify <dir>\n",
            argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  const std::string dir = argv[2];
  if (mode == "load") {
    const int n = argc > 3 ? std::atoi(argv[3]) : 100000;
    return RunLoad(dir, n);
  }
  if (mode == "verify") {
    return RunVerify(dir);
  }
  fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
