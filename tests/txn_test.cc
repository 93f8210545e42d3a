/// Tests for the concurrency layer: the two-phase-locking lock manager
/// (§2.2.3), the thread pool, session isolation semantics, and the hybrid
/// engine's parallel segment scanning.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/thread_pool.h"
#include "test_util.h"
#include "txn/lock_manager.h"

namespace decibel {
namespace {

using testing_util::MakeRecord;
using testing_util::ScratchDir;
using testing_util::TestSchema;

// ------------------------------------------------------------ LockManager

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager locks;
  ASSERT_OK(locks.Acquire(1, 0, LockMode::kShared));
  ASSERT_OK(locks.Acquire(2, 0, LockMode::kShared));
  EXPECT_TRUE(locks.IsLocked(0));
  locks.Release(1, 0);
  locks.Release(2, 0);
  EXPECT_FALSE(locks.IsLocked(0));
}

TEST(LockManagerTest, ExclusiveExcludes) {
  LockManager locks(std::chrono::milliseconds(50));
  ASSERT_OK(locks.Acquire(1, 0, LockMode::kExclusive));
  EXPECT_TRUE(locks.Acquire(2, 0, LockMode::kShared).IsAborted());
  EXPECT_TRUE(locks.Acquire(2, 0, LockMode::kExclusive).IsAborted());
  // Other branches are unaffected.
  ASSERT_OK(locks.Acquire(2, 1, LockMode::kExclusive));
  locks.ReleaseAll(1);
  ASSERT_OK(locks.Acquire(2, 0, LockMode::kExclusive));
}

TEST(LockManagerTest, ReentrantAndUpgrade) {
  LockManager locks;
  ASSERT_OK(locks.Acquire(1, 0, LockMode::kShared));
  ASSERT_OK(locks.Acquire(1, 0, LockMode::kShared));     // re-acquire
  ASSERT_OK(locks.Acquire(1, 0, LockMode::kExclusive));  // sole upgrade
  ASSERT_OK(locks.Acquire(1, 0, LockMode::kShared));     // X covers S
  locks.ReleaseAll(1);
  EXPECT_FALSE(locks.IsLocked(0));
}

TEST(LockManagerTest, UpgradeBlockedByOtherReader) {
  LockManager locks(std::chrono::milliseconds(50));
  ASSERT_OK(locks.Acquire(1, 0, LockMode::kShared));
  ASSERT_OK(locks.Acquire(2, 0, LockMode::kShared));
  EXPECT_TRUE(locks.Acquire(1, 0, LockMode::kExclusive).IsAborted());
}

TEST(LockManagerTest, BlockedWriterWakesOnRelease) {
  LockManager locks(std::chrono::milliseconds(2000));
  ASSERT_OK(locks.Acquire(1, 0, LockMode::kExclusive));
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status s = locks.Acquire(2, 0, LockMode::kExclusive);
    acquired = s.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  locks.Release(1, 0);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockManagerTest, ManyConcurrentWriters) {
  LockManager locks(std::chrono::milliseconds(5000));
  int counter = 0;  // protected by branch-0 lock
  std::vector<std::thread> threads;
  for (int t = 1; t <= 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        ASSERT_OK(locks.Acquire(static_cast<uint64_t>(t), 0,
                                LockMode::kExclusive));
        ++counter;
        locks.Release(static_cast<uint64_t>(t), 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 8 * 200);
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum += i; });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { ++count; });
  pool.Submit([&] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

// ----------------------------------------------------- session semantics

TEST(SessionTest, ConcurrentReadersDifferentSessions) {
  ScratchDir dir("txn");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, DecibelOptions{})
                .MoveValueUnsafe();
  for (int64_t pk = 0; pk < 100; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 1)));
  }
  ASSERT_OK_AND_ASSIGN(CommitId c1, db->CommitBranch(kMasterBranch));
  ASSERT_OK(db->UpdateIn(kMasterBranch, MakeRecord(schema, 0, 2)));

  // "any other user could check out Version A and thereby revert the
  // state of the dataset back to that state within their own session"
  // (§2.2.3) — while another session reads the head.
  Session historical = db->NewSession();
  ASSERT_OK(db->Checkout(&historical, c1));
  Session head = db->NewSession();
  ASSERT_OK(db->Use(&head, kMasterBranch));

  auto hist_rows = testing_util::Collect(
      db->NewScan(historical).MoveValueUnsafe().get());
  auto head_rows =
      testing_util::Collect(db->NewScan(head).MoveValueUnsafe().get());
  EXPECT_EQ(hist_rows[0], 1);
  EXPECT_EQ(head_rows[0], 2);
}

TEST(SessionTest, ParallelWritersOnDistinctBranches) {
  ScratchDir dir("txn");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, DecibelOptions{})
                .MoveValueUnsafe();
  ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, 0, 0)));
  Session s = db->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId b1, db->Branch("w1", &s));
  ASSERT_OK(db->Use(&s, kMasterBranch));
  ASSERT_OK_AND_ASSIGN(BranchId b2, db->Branch("w2", &s));

  std::thread t1([&] {
    for (int64_t i = 0; i < 200; ++i) {
      ASSERT_OK(db->InsertInto(b1, MakeRecord(schema, 1000 + i, 1)));
    }
  });
  std::thread t2([&] {
    for (int64_t i = 0; i < 200; ++i) {
      ASSERT_OK(db->InsertInto(b2, MakeRecord(schema, 2000 + i, 2)));
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(testing_util::CollectBranch(db.get(), b1).size(), 201u);
  EXPECT_EQ(testing_util::CollectBranch(db.get(), b2).size(), 201u);
}

}  // namespace
}  // namespace decibel
