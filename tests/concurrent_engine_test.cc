/// Concurrency suite for the striped write path: transactions on disjoint
/// branches commit in parallel on all three engines, readers ride
/// batch-boundary snapshots while writers append, and cross-branch
/// operations (merge) acquire their stripes in a global order. These are
/// the TSan CI targets for the sharded-registry refactor; the LockManager
/// tests at the bottom pin the FIFO wakeup discipline (a late stream of
/// shared acquirers cannot starve a queued exclusive waiter).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/decibel.h"
#include "test_util.h"
#include "txn/lock_manager.h"

namespace decibel {
namespace {

using testing_util::CollectBranch;
using testing_util::MakeRecord;
using testing_util::ScratchDir;
using testing_util::TestSchema;

class ConcurrentEngineTest : public ::testing::TestWithParam<EngineType> {
 protected:
  DecibelOptions Options() const {
    DecibelOptions options;
    options.engine = GetParam();
    options.lock_timeout_ms = 10000;
    return options;
  }
};

// One writer thread per branch, every branch on its own stripe: all
// threads push transactions concurrently and each branch must end up with
// exactly its own writes (plus the inherited base) — nothing lost,
// nothing leaked across branches.
TEST_P(ConcurrentEngineTest, DisjointBranchCommitsInParallel) {
  ScratchDir dir("conc_disjoint");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  constexpr int kBranches = 8;
  constexpr int kTxns = 6;
  constexpr int kRowsPerTxn = 40;

  for (int64_t pk = 0; pk < 10; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 0)));
  }
  std::vector<BranchId> branches;
  Session s = db->NewSession();
  for (int b = 0; b < kBranches; ++b) {
    ASSERT_OK(db->Use(&s, kMasterBranch));
    ASSERT_OK_AND_ASSIGN(BranchId child,
                         db->Branch("writer" + std::to_string(b), &s));
    branches.push_back(child);
  }

  std::vector<std::thread> threads;
  threads.reserve(kBranches);
  for (int b = 0; b < kBranches; ++b) {
    threads.emplace_back([&, b] {
      const int64_t base = 1000 * (b + 1);
      for (int round = 0; round < kTxns; ++round) {
        auto txn = db->Begin(branches[b]);
        ASSERT_TRUE(txn.ok()) << txn.status().ToString();
        for (int64_t i = 0; i < kRowsPerTxn; ++i) {
          ASSERT_OK(txn->Insert(
              MakeRecord(schema, base + round * kRowsPerTxn + i, b + 1)));
        }
        Status committed = txn->Commit();
        while (committed.IsAborted()) committed = txn->Commit();
        ASSERT_OK(committed);
        // Interleave version-control commits with the data traffic so the
        // striped commit path runs concurrently across branches too.
        auto c = db->CommitBranch(branches[b]);
        ASSERT_TRUE(c.ok()) << c.status().ToString();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int b = 0; b < kBranches; ++b) {
    auto rows = CollectBranch(db.get(), branches[b]);
    ASSERT_EQ(rows.size(), 10u + kTxns * kRowsPerTxn) << "branch " << b;
    for (const auto& [pk, value] : rows) {
      if (pk < 10) {
        EXPECT_EQ(value, 0) << "inherited row clobbered, pk " << pk;
      } else {
        EXPECT_EQ(value, b + 1) << "cross-branch leak at pk " << pk;
      }
    }
  }
  EXPECT_EQ(CollectBranch(db.get(), kMasterBranch).size(), 10u);
}

// Writers apply batches of exactly kBatch rows; concurrent readers open
// snapshot scans in a loop. A scan that ever observes a row count that is
// not a multiple of kBatch has seen a half-applied batch.
TEST_P(ConcurrentEngineTest, ReadersNeverObserveHalfAppliedBatches) {
  ScratchDir dir("conc_snapshot");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  constexpr int kBatch = 25;
  constexpr int kTxns = 30;

  Session s = db->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId hot, db->Branch("hot", &s));

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < kTxns; ++round) {
      auto txn = db->Begin(hot);
      ASSERT_TRUE(txn.ok()) << txn.status().ToString();
      for (int64_t i = 0; i < kBatch; ++i) {
        ASSERT_OK(txn->Insert(MakeRecord(schema, round * kBatch + i, round)));
      }
      Status committed = txn->Commit();
      while (committed.IsAborted()) committed = txn->Commit();
      ASSERT_OK(committed);
    }
    done.store(true);
  });

  std::thread reader([&] {
    size_t last = 0;
    while (!done.load()) {
      auto cursor = db->NewScan(ScanSpec::Branch(hot));
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      ScanRow row;
      size_t count = 0;
      while ((*cursor)->Next(&row)) ++count;
      ASSERT_OK((*cursor)->status());
      EXPECT_EQ(count % kBatch, 0u) << "scan saw a half-applied batch";
      EXPECT_GE(count, last) << "scan went backwards in time";
      last = count;
    }
  });

  writer.join();
  reader.join();
  EXPECT_EQ(CollectBranch(db.get(), hot).size(),
            static_cast<size_t>(kTxns * kBatch));
}

// A cursor snapshots at open: rows applied to the branch afterwards do
// not appear mid-iteration.
TEST_P(ConcurrentEngineTest, CursorSnapshotsAtOpen) {
  ScratchDir dir("conc_openSnap");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  for (int64_t pk = 0; pk < 50; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 1)));
  }
  Session s = db->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db->Branch("dev", &s));
  ASSERT_OK(db->UpdateIn(dev, MakeRecord(schema, 0, 3)));
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       db->NewScan(ScanSpec::Branch(kMasterBranch)));
  // The multi-branch view captures its bitmaps and files at open too.
  ASSERT_OK_AND_ASSIGN(auto multi,
                       db->NewScan(ScanSpec::Multi({kMasterBranch, dev})));
  for (int64_t pk = 50; pk < 150; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 2)));
    ASSERT_OK(db->InsertInto(dev, MakeRecord(schema, pk, 2)));
  }
  ASSERT_OK(db->UpdateIn(dev, MakeRecord(schema, 1, 4)));
  ScanRow row;
  size_t count = 0;
  while (cursor->Next(&row)) {
    EXPECT_LT(row.record.pk(), 50) << "cursor leaked a post-open row";
    ++count;
  }
  ASSERT_OK(cursor->status());
  EXPECT_EQ(count, 50u);
  // 49 versions live in both heads plus pk 0's two versions.
  size_t both = 0, multi_rows = 0;
  while (multi->Next(&row)) {
    EXPECT_LT(row.record.pk(), 50) << "multi cursor leaked a post-open row";
    EXPECT_NE(row.record.GetInt32(1), 4) << "multi cursor leaked an update";
    ASSERT_NE(row.branches, nullptr);
    if (row.branches->size() == 2) ++both;
    ++multi_rows;
  }
  ASSERT_OK(multi->status());
  EXPECT_EQ(multi_rows, 51u);
  EXPECT_EQ(both, 49u);
  EXPECT_EQ(CollectBranch(db.get(), kMasterBranch).size(), 150u);
}

// Merges (multi-stripe, registry-exclusive) race writers on unrelated
// branches and each other. The ordered stripe acquisition must keep the
// whole mix deadlock-free and every merge must land its source rows.
TEST_P(ConcurrentEngineTest, ConcurrentMergesAndWritersDoNotDeadlock) {
  ScratchDir dir("conc_merge");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  for (int64_t pk = 0; pk < 20; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 0)));
  }
  // Two merge pairs plus two independent writer branches.
  Session s = db->NewSession();
  std::vector<BranchId> b(6);
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(db->Use(&s, kMasterBranch));
    ASSERT_OK_AND_ASSIGN(b[i], db->Branch("m" + std::to_string(i), &s));
  }
  ASSERT_OK(db->InsertInto(b[1], MakeRecord(schema, 101, 11)));
  ASSERT_OK(db->InsertInto(b[3], MakeRecord(schema, 103, 13)));

  auto merge = [&](int into, int from) {
    auto m = db->Merge(b[into], b[from], MergePolicy::kThreeWayLeft);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
  };
  auto write = [&](int w) {
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_OK(db->InsertInto(b[w], MakeRecord(schema, 1000 * w + i, w)));
    }
  };
  std::thread m1(merge, 0, 1);
  std::thread m2(merge, 2, 3);
  std::thread w1(write, 4);
  std::thread w2(write, 5);
  m1.join();
  m2.join();
  w1.join();
  w2.join();

  EXPECT_EQ(CollectBranch(db.get(), b[0]).count(101), 1u);
  EXPECT_EQ(CollectBranch(db.get(), b[2]).count(103), 1u);
  EXPECT_EQ(CollectBranch(db.get(), b[4]).size(), 120u);
  EXPECT_EQ(CollectBranch(db.get(), b[5]).size(), 120u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ConcurrentEngineTest,
                         ::testing::Values(EngineType::kTupleFirst,
                                           EngineType::kVersionFirst,
                                           EngineType::kHybrid),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineType::kTupleFirst:
                               return "TupleFirst";
                             case EngineType::kVersionFirst:
                               return "VersionFirst";
                             default:
                               return "Hybrid";
                           }
                         });

// ------------------------------------------- reads racing the write path

struct EngineLayout {
  EngineType engine;
  BitmapOrientation orientation;
  const char* name;
};

// Prints the name, not the raw bytes (a pointer), so test names are stable.
void PrintTo(const EngineLayout& layout, std::ostream* os) {
  *os << layout.name;
}

class ReadRaceTest : public ::testing::TestWithParam<EngineLayout> {};

// Point reads, branch scans and Stats() race every operation that moves
// the engines' branch state: one writer on master, one on a child, a
// thread forking and retiring branches of both (a fork freezes the
// parent's pk-index delta while readers probe it) and reading each
// retired head back (which rebuilds its released index), and
// checkpoints. Every row a reader sees must come from some applied state
// of its branch: master writes round r as value r, the child as -r, and
// MakeRecord sets every column to the value, so a torn or stray row
// shows.
TEST_P(ReadRaceTest, ReadsSeeOnlyAppliedStatesUnderForksRetiresCheckpoints) {
  ScratchDir dir("read_race");
  const Schema schema = TestSchema(3);
  DecibelOptions options;
  options.engine = GetParam().engine;
  options.orientation = GetParam().orientation;
  options.lock_timeout_ms = 10000;
  options.page_size = 4096;
  auto db = Decibel::Open(dir.path(), schema, options).MoveValueUnsafe();

  constexpr int64_t kKeys = 64;
  constexpr int kRounds = 40;
  for (int64_t pk = 0; pk < kKeys; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 0)));
  }
  ASSERT_TRUE(db->CommitBranch(kMasterBranch).ok());
  Session s = db->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId child, db->Branch("child", &s));

  // Highest round each writer has started; a reader's row may be at most
  // that far along (and at least 0 for master, at most 0 for the child).
  std::atomic<int> master_round{0}, child_round{0};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  // Checks one row of \p branch, or of a fork of it; inserted keys
  // (pk >= kKeys) carry the round they were inserted in, so the same
  // bounds hold for them.
  auto check_row = [&](BranchId branch, const RecordRef& rec) {
    const int32_t v = rec.GetInt32(1);
    bool ok = rec.GetInt32(2) == v && rec.GetInt32(3) == v;
    if (branch == kMasterBranch) {
      ok = ok && v >= 0 && v <= master_round.load();
    } else {
      ok = ok && v <= 0 && v >= -child_round.load();
    }
    if (!ok) {
      ADD_FAILURE() << "branch " << branch << " pk " << rec.pk()
                    << " holds " << v << "/" << rec.GetInt32(2) << "/"
                    << rec.GetInt32(3);
      failures.fetch_add(1);
    }
  };

  auto write = [&](BranchId branch, std::atomic<int>* round, int sign) {
    for (int r = 1; r <= kRounds; ++r) {
      round->store(r);
      for (int64_t pk = r % 4; pk < kKeys; pk += 4) {
        ASSERT_OK(db->UpdateIn(branch, MakeRecord(schema, pk, sign * r)));
      }
      ASSERT_OK(db->InsertInto(
          branch, MakeRecord(schema, kKeys + 100 * (sign > 0) + r, sign * r)));
      ASSERT_TRUE(db->CommitBranch(branch).ok());
    }
  };

  std::thread master_writer([&] { write(kMasterBranch, &master_round, 1); });
  std::thread child_writer([&] { write(child, &child_round, -1); });
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Session fork = db->NewSession();
    // Bounded: every hybrid fork rolls its parent's head into a new file.
    for (int i = 0; !done.load() && i < 150; ++i) {
      const BranchId parent = i % 2 == 0 ? kMasterBranch : child;
      ASSERT_OK(db->Use(&fork, parent));
      ASSERT_OK_AND_ASSIGN(BranchId tmp,
                           db->Branch("tmp" + std::to_string(i), &fork));
      ASSERT_OK(db->RetireBranch(tmp));
      auto got = db->Get(tmp, i % kKeys);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      check_row(parent, got.value().ref());
    }
  });
  threads.emplace_back([&] {
    while (!done.load()) {
      ASSERT_OK(db->CheckpointNow());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      uint64_t seed = 0x9e3779b97f4a7c15ull * (t + 1);
      while (!done.load() && failures.load() == 0) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const BranchId branch = (seed >> 40) % 2 == 0 ? kMasterBranch : child;
        const int64_t pk = static_cast<int64_t>((seed >> 20) % kKeys);
        auto got = db->Get(branch, pk);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got.value().pk(), pk);
        check_row(branch, got.value().ref());
        if ((seed >> 33) % 8 == 0) {
          auto cursor = db->NewScan(ScanSpec::Branch(branch));
          ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
          ScanRow row;
          size_t rows = 0;
          while ((*cursor)->Next(&row)) {
            check_row(branch, row.record);
            ++rows;
          }
          ASSERT_OK((*cursor)->status());
          EXPECT_GE(rows, static_cast<size_t>(kKeys));
        }
        if ((seed >> 36) % 16 == 0) {
          const DecibelStats stats = db->Stats();
          EXPECT_GE(stats.engine.num_records, static_cast<uint64_t>(kKeys));
        }
      }
    });
  }
  master_writer.join();
  child_writer.join();
  done.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Both writers' last rounds landed, on their own branch only: key pk
  // was last written in the latest round r == pk (mod 4).
  auto master_rows = CollectBranch(db.get(), kMasterBranch);
  auto child_rows = CollectBranch(db.get(), child);
  EXPECT_EQ(master_rows.size(), static_cast<size_t>(kKeys + kRounds));
  EXPECT_EQ(child_rows.size(), static_cast<size_t>(kKeys + kRounds));
  for (int64_t pk = 0; pk < kKeys; ++pk) {
    const int last = kRounds - static_cast<int>((kRounds - pk % 4) % 4);
    EXPECT_EQ(master_rows[pk], last) << "master pk " << pk;
    EXPECT_EQ(child_rows[pk], -last) << "child pk " << pk;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EngineLayouts, ReadRaceTest,
    ::testing::Values(
        EngineLayout{EngineType::kTupleFirst,
                     BitmapOrientation::kBranchOriented, "TupleFirst"},
        EngineLayout{EngineType::kTupleFirst,
                     BitmapOrientation::kTupleOriented,
                     "TupleFirstTupleOriented"},
        EngineLayout{EngineType::kVersionFirst,
                     BitmapOrientation::kBranchOriented, "VersionFirst"},
        EngineLayout{EngineType::kHybrid, BitmapOrientation::kBranchOriented,
                     "Hybrid"}),
    [](const auto& info) { return std::string(info.param.name); });

// ------------------------------------------------- LockManager FIFO order

/// Spins until \p locks reports \p n waiters on \p branch (bounded).
void WaitForWaiters(const LockManager& locks, BranchId branch, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (locks.WaitingCount(branch) < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(locks.WaitingCount(branch), n);
}

// A queued exclusive waiter is granted before shared requests that arrive
// after it: late readers park behind the writer instead of slipping past
// while the lock is still share-held.
TEST(LockManagerFifoTest, LateReadersDoNotStarveQueuedWriter) {
  LockManager locks(std::chrono::milliseconds(10000));
  constexpr BranchId kBranch = 7;
  ASSERT_OK(locks.Acquire(1, kBranch, LockMode::kShared));

  std::atomic<int> order{0};
  std::atomic<int> writer_turn{-1};
  std::atomic<int> reader_turn{-1};

  std::thread writer([&] {
    ASSERT_OK(locks.Acquire(2, kBranch, LockMode::kExclusive));
    writer_turn = order.fetch_add(1);
    locks.Release(2, kBranch);
  });
  WaitForWaiters(locks, kBranch, 1);

  // The lock is only share-held, so this shared request is compatible
  // with the current holders — but the FIFO queue makes it wait its turn
  // behind the exclusive waiter.
  std::thread reader([&] {
    ASSERT_OK(locks.Acquire(3, kBranch, LockMode::kShared));
    reader_turn = order.fetch_add(1);
    locks.Release(3, kBranch);
  });
  WaitForWaiters(locks, kBranch, 2);

  locks.Release(1, kBranch);
  writer.join();
  reader.join();
  EXPECT_LT(writer_turn.load(), reader_turn.load());
  EXPECT_FALSE(locks.IsLocked(kBranch));
}

// A release grants a maximal run of shared waiters at once, and an
// exclusive waiter behind them waits for the whole run to drain.
TEST(LockManagerFifoTest, ReleaseGrantsSharedRunThenExclusive) {
  LockManager locks(std::chrono::milliseconds(10000));
  constexpr BranchId kBranch = 9;
  ASSERT_OK(locks.Acquire(1, kBranch, LockMode::kExclusive));

  std::atomic<int> readers_in{0};
  std::atomic<bool> writer_in{false};
  std::mutex gate;  // holds the granted readers inside their section
  gate.lock();

  std::vector<std::thread> readers;
  readers.reserve(3);
  for (uint64_t owner = 2; owner <= 4; ++owner) {
    readers.emplace_back([&, owner] {
      ASSERT_OK(locks.Acquire(owner, kBranch, LockMode::kShared));
      readers_in.fetch_add(1);
      gate.lock();
      gate.unlock();
      locks.Release(owner, kBranch);
    });
    WaitForWaiters(locks, kBranch, owner - 1);
  }
  std::thread writer([&] {
    ASSERT_OK(locks.Acquire(5, kBranch, LockMode::kExclusive));
    writer_in = true;
    locks.Release(5, kBranch);
  });
  WaitForWaiters(locks, kBranch, 4);

  locks.Release(1, kBranch);  // one release wakes the whole shared run
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (readers_in.load() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(readers_in.load(), 3);
  EXPECT_FALSE(writer_in.load());  // still parked behind the run
  gate.unlock();
  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_TRUE(writer_in.load());
  EXPECT_FALSE(locks.IsLocked(kBranch));
}

// A waiter that times out removes itself without wedging the queue: the
// waiters behind it still get granted.
TEST(LockManagerFifoTest, TimedOutWaiterUnblocksQueueBehindIt) {
  LockManager locks(std::chrono::milliseconds(500));
  constexpr BranchId kBranch = 11;
  ASSERT_OK(locks.Acquire(1, kBranch, LockMode::kShared));
  ASSERT_OK(locks.Acquire(2, kBranch, LockMode::kShared));

  // Owner 3 wants exclusive: blocked by two holders, it will time out.
  std::thread upgrader([&] {
    Status s = locks.Acquire(3, kBranch, LockMode::kExclusive);
    EXPECT_TRUE(s.IsAborted()) << s.ToString();
  });
  WaitForWaiters(locks, kBranch, 1);

  // Owner 4 queues a shared request behind the doomed writer. Its own
  // deadline lands well after owner 3's (both use the manager-wide
  // timeout, so the stagger below keeps the grant-on-departure path — not
  // a second timeout — the thing under test).
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  std::thread reader([&] {
    ASSERT_OK(locks.Acquire(4, kBranch, LockMode::kShared));
    locks.Release(4, kBranch);
  });
  WaitForWaiters(locks, kBranch, 2);

  upgrader.join();  // times out, departs, and re-grants the queue
  reader.join();    // granted despite never seeing a release
  locks.Release(1, kBranch);
  locks.Release(2, kBranch);
  EXPECT_FALSE(locks.IsLocked(kBranch));
}

}  // namespace
}  // namespace decibel
