/// Durable load driver for crash-recovery smoke testing.
///
/// `load` opens a database in fsync durability and streams records into
/// two branches, committing every few rows. After each acknowledged
/// commit it durably records the high-water mark in a sidecar progress
/// file. The process is designed to be SIGKILLed mid-load.
///
/// `verify` reopens the same directory — recovering from the manifest,
/// checkpoint, and WAL tail — and checks that every record up to the
/// acknowledged high-water mark survived, on the right branch, with the
/// right values.
///
///   $ ./durable_load load <dir> [num_records]     # kill -9 me
///   $ ./durable_load verify <dir>                 # exit 0 iff intact
///
/// The CI release job runs exactly this pair around a SIGKILL.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/io.h"
#include "core/decibel.h"

using namespace decibel;

namespace {

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

std::string ProgressPath(const std::string& dir) { return dir + ".progress"; }

int RunLoad(const std::string& dir, int num_records) {
  auto db = Decibel::Open(dir, Schema::MakeBenchmark(3), LoadOptions());
  if (!db.ok()) {
    fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto dev = (*db)->BranchAt("dev", (*db)->graph().Head(kMasterBranch));
  if (!dev.ok()) {
    fprintf(stderr, "branch failed: %s\n", dev.status().ToString().c_str());
    return 1;
  }
  for (int i = 0; i < num_records; ++i) {
    const BranchId target = (i % 2 == 0) ? kMasterBranch : *dev;
    Status s = (*db)->InsertInto(target, Row((*db)->schema(), i, i));
    if (!s.ok()) {
      fprintf(stderr, "insert %d failed: %s\n", i, s.ToString().c_str());
      return 1;
    }
    if (i % 8 == 7) {
      auto c1 = (*db)->CommitBranch(kMasterBranch);
      auto c2 = (*db)->CommitBranch(*dev);
      if (!c1.ok() || !c2.ok()) {
        fprintf(stderr, "commit at %d failed\n", i);
        return 1;
      }
      // Both commits are acknowledged: record the high-water mark with
      // the same durability the commits themselves have.
      s = AtomicWriteFile(ProgressPath(dir), std::to_string(i),
                          /*sync=*/true);
      if (!s.ok()) {
        fprintf(stderr, "progress write failed: %s\n", s.ToString().c_str());
        return 1;
      }
      if (i % 256 == 255) {
        printf("acked %d\n", i);
        fflush(stdout);
      }
    }
  }
  printf("load complete: %d records\n", num_records);
  return 0;
}

int RunVerify(const std::string& dir) {
  auto note = ReadFileToString(ProgressPath(dir));
  if (!note.ok()) {
    fprintf(stderr, "no progress file: %s\n", note.status().ToString().c_str());
    return 1;
  }
  const int acked = std::atoi(note->c_str());
  auto db = Decibel::Open(dir, LoadOptions());
  if (!db.ok()) {
    fprintf(stderr, "reopen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto dev = (*db)->graph().FindBranchByName("dev");
  if (!dev.ok()) {
    fprintf(stderr, "branch 'dev' lost\n");
    return 1;
  }
  int verified = 0;
  for (int i = 0; i <= acked; ++i) {
    const BranchId target = (i % 2 == 0) ? kMasterBranch : *dev;
    auto rec = (*db)->Get(target, i);
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
  printf("verified %d acknowledged records across 2 branches (acked=%d)\n",
         verified, acked);
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
