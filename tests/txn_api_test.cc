/// Tests for the transaction-centric public API: Decibel::Begin,
/// Transaction/WriteBatch staging, atomic commit under the branch lock,
/// abort semantics, the retryable lock-timeout Status::Aborted, and
/// serialization of concurrent transactions on one branch (§2.2.3's
/// branch-granularity two-phase locking).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "test_util.h"
#include "txn/lock_guard.h"
#include "txn/write_batch.h"

namespace decibel {
namespace {

using testing_util::CollectBranch;
using testing_util::MakeRecord;
using testing_util::ScratchDir;
using testing_util::TestSchema;

// Shared semantics across all three engines.
class TxnApiTest : public ::testing::TestWithParam<EngineType> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("txn_api");
    schema_ = TestSchema(2);
    DecibelOptions options;
    options.engine = GetParam();
    ASSERT_OK_AND_ASSIGN(
        db_, Decibel::Open(dir_->path(), schema_, options));
  }

  std::unique_ptr<ScratchDir> dir_;
  Schema schema_ = TestSchema(2);
  std::unique_ptr<Decibel> db_;
};

TEST_P(TxnApiTest, StagedOpsInvisibleUntilCommit) {
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(Transaction txn, db_->Begin(&s));
  ASSERT_OK(txn.Insert(MakeRecord(schema_, 1, 10)));
  ASSERT_OK(txn.Insert(MakeRecord(schema_, 2, 20)));
  EXPECT_EQ(txn.staged(), 2u);

  // Nothing is visible (or dirty) before Commit.
  EXPECT_TRUE(CollectBranch(db_.get(), kMasterBranch).empty());
  EXPECT_FALSE(db_->IsDirty(kMasterBranch));

  ASSERT_OK(txn.Commit());
  EXPECT_FALSE(txn.active());
  EXPECT_TRUE(db_->IsDirty(kMasterBranch));
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], 10);
  EXPECT_EQ(rows[2], 20);
}

TEST_P(TxnApiTest, MixedBatchAppliesInOrder) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));

  ASSERT_OK_AND_ASSIGN(Transaction txn, db_->Begin(kMasterBranch));
  ASSERT_OK(txn.Update(MakeRecord(schema_, 1, 99)));   // update existing
  ASSERT_OK(txn.Insert(MakeRecord(schema_, 2, 2)));    // new key
  ASSERT_OK(txn.Insert(MakeRecord(schema_, 3, 3)));    // inserted...
  ASSERT_OK(txn.Delete(3));                            // ...then deleted
  ASSERT_OK(txn.Update(MakeRecord(schema_, 2, 22)));   // update staged key
  ASSERT_OK(txn.Commit());

  auto rows = CollectBranch(db_.get(), kMasterBranch);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], 99);
  EXPECT_EQ(rows[2], 22);
}

TEST_P(TxnApiTest, AbortDiscardsStagedOps) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK_AND_ASSIGN(CommitId c1, db_->CommitBranch(kMasterBranch));
  (void)c1;

  ASSERT_OK_AND_ASSIGN(Transaction txn, db_->Begin(kMasterBranch));
  ASSERT_OK(txn.Insert(MakeRecord(schema_, 2, 2)));
  ASSERT_OK(txn.Delete(1));
  ASSERT_OK(txn.Abort());
  EXPECT_FALSE(txn.active());
  EXPECT_EQ(txn.staged(), 0u);
  // Staging or committing after the end of the transaction is an error.
  EXPECT_FALSE(txn.Insert(MakeRecord(schema_, 3, 3)).ok());
  EXPECT_FALSE(txn.Commit().ok());

  auto rows = CollectBranch(db_.get(), kMasterBranch);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[1], 1);
  EXPECT_FALSE(db_->IsDirty(kMasterBranch));
}

TEST_P(TxnApiTest, DestructorAborts) {
  {
    ASSERT_OK_AND_ASSIGN(Transaction txn, db_->Begin(kMasterBranch));
    ASSERT_OK(txn.Insert(MakeRecord(schema_, 7, 7)));
    // Dropped without Commit: staged ops must vanish.
  }
  EXPECT_TRUE(CollectBranch(db_.get(), kMasterBranch).empty());
  EXPECT_FALSE(db_->IsDirty(kMasterBranch));
}

TEST_P(TxnApiTest, BeginRejectsHistoricalCheckout) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK_AND_ASSIGN(CommitId c1, db_->CommitBranch(kMasterBranch));
  Session s = db_->NewSession();
  ASSERT_OK(db_->Checkout(&s, c1));
  EXPECT_FALSE(db_->Begin(&s).ok());
}

TEST_P(TxnApiTest, PerOpWrappersAreOneOpTransactions) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 1, 2)));
  EXPECT_TRUE(db_->IsDirty(kMasterBranch));
  ASSERT_OK(db_->DeleteFrom(kMasterBranch, 1));
  EXPECT_TRUE(CollectBranch(db_.get(), kMasterBranch).empty());
  // The branch lock is fully released between one-op transactions.
  EXPECT_FALSE(db_->lock_manager()->IsLocked(kMasterBranch));
}

TEST_P(TxnApiTest, LockTimeoutIsRetryable) {
  ScratchDir dir("txn_api_timeout");
  DecibelOptions options;
  options.engine = GetParam();
  options.lock_timeout_ms = 50;
  ASSERT_OK_AND_ASSIGN(auto db, Decibel::Open(dir.path(), schema_, options));

  ASSERT_OK_AND_ASSIGN(Transaction txn, db->Begin(kMasterBranch));
  ASSERT_OK(txn.Insert(MakeRecord(schema_, 1, 1)));

  // A competing holder keeps the branch exclusively locked past the
  // deadlock timeout: Commit fails with the retryable Aborted status and
  // the staged batch survives.
  ASSERT_OK(
      db->lock_manager()->Acquire(9999, kMasterBranch, LockMode::kExclusive));
  const Status blocked = txn.Commit();
  EXPECT_TRUE(blocked.IsAborted()) << blocked.ToString();
  EXPECT_TRUE(txn.active());
  EXPECT_EQ(txn.staged(), 1u);
  EXPECT_TRUE(CollectBranch(db.get(), kMasterBranch).empty());

  // Retry discipline: once the blocker releases, the same Commit call
  // succeeds with the retained batch.
  db->lock_manager()->Release(9999, kMasterBranch);
  ASSERT_OK(txn.Commit());
  EXPECT_EQ(CollectBranch(db.get(), kMasterBranch).size(), 1u);
}

TEST_P(TxnApiTest, DeleteOfAbsentKeyIsAllOrNothing) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));

  ASSERT_OK_AND_ASSIGN(Transaction txn, db_->Begin(kMasterBranch));
  ASSERT_OK(txn.Insert(MakeRecord(schema_, 2, 2)));
  ASSERT_OK(txn.Delete(42));  // never existed
  const Status failed = txn.Commit();
  EXPECT_TRUE(failed.IsNotFound()) << failed.ToString();

  // The batch was rejected up front: the staged insert did not leak.
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.count(2), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, TxnApiTest,
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

// ------------------------------------------------- concurrent transactions

// Two threads transact on the same branch: each transaction upserts every
// key in [0, K) with a value unique to that transaction. Because commits
// apply atomically under the branch's exclusive lock, a scan after the
// dust settles must observe exactly one transaction's values on all keys
// — interleaving would leave a mix. (This test is the TSan CI target for
// the transaction commit path.)
TEST(TxnConcurrencyTest, CommitsOnOneBranchDoNotInterleave) {
  ScratchDir dir("txn_api_conc");
  const Schema schema = TestSchema(2);
  DecibelOptions options;
  options.engine = EngineType::kHybrid;
  options.lock_timeout_ms = 5000;
  auto db = Decibel::Open(dir.path(), schema, options).MoveValueUnsafe();

  constexpr int kKeys = 64;
  constexpr int kTxnsPerThread = 10;
  constexpr int kThreads = 2;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kTxnsPerThread; ++round) {
        auto txn = db->Begin(kMasterBranch);
        ASSERT_TRUE(txn.ok());
        const int32_t marker = t * 1000 + round;
        for (int64_t pk = 0; pk < kKeys; ++pk) {
          ASSERT_OK(txn->Insert(MakeRecord(schema, pk, marker)));
        }
        Status s = txn->Commit();
        while (s.IsAborted()) s = txn->Commit();  // retry discipline
        ASSERT_OK(s);
      }
    });
  }
  for (auto& t : threads) t.join();

  auto rows = CollectBranch(db.get(), kMasterBranch);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kKeys));
  const int32_t winner = rows[0];
  for (const auto& [pk, value] : rows) {
    EXPECT_EQ(value, winner) << "interleaved commit at pk " << pk;
  }
}

// Writers on distinct branches need no caller-side coordination:
// transactions on different branches proceed in parallel (the hybrid
// engine appends to independent head segments; tuple-first serializes
// its shared heap internally).
class TxnConcurrencyBranchesTest
    : public ::testing::TestWithParam<EngineType> {};

TEST_P(TxnConcurrencyBranchesTest, ParallelTransactionsOnDistinctBranches) {
  ScratchDir dir("txn_api_par");
  const Schema schema = TestSchema(2);
  DecibelOptions options;
  options.engine = GetParam();
  auto db = Decibel::Open(dir.path(), schema, options).MoveValueUnsafe();

  // Both branches inherit pks [0, 100) from master, so the threads'
  // updates and deletes of inherited records hit state shared between
  // the branches (tuple-first's one heap/bitmap universe; hybrid's
  // frozen ancestor-segment bitmaps; version-first's shared segment
  // registry) — the engines must order them.
  for (int64_t pk = 0; pk < 100; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 0)));
  }
  Session s = db->NewSession();
  auto b1 = db->Branch("w1", &s);
  ASSERT_TRUE(b1.ok());
  ASSERT_OK(db->Use(&s, kMasterBranch));
  auto b2 = db->Branch("w2", &s);
  ASSERT_TRUE(b2.ok());

  auto writer = [&](BranchId branch, int64_t base) {
    for (int round = 0; round < 5; ++round) {
      auto txn = db->Begin(branch);
      ASSERT_TRUE(txn.ok());
      for (int64_t i = 0; i < 50; ++i) {
        ASSERT_OK(txn->Insert(
            MakeRecord(schema, base + round * 50 + i, round)));
      }
      for (int64_t pk = round * 20; pk < round * 20 + 20; ++pk) {
        ASSERT_OK(txn->Update(MakeRecord(schema, pk, round + 1)));
      }
      ASSERT_OK(txn->Delete(base % 7 + round));  // inherited key
      ASSERT_OK(txn->Insert(MakeRecord(schema, base % 7 + round, 9)));
      ASSERT_OK(txn->Commit());
    }
  };
  std::thread t1(writer, *b1, 1000);
  std::thread t2(writer, *b2, 2000);
  t1.join();
  t2.join();
  EXPECT_EQ(CollectBranch(db.get(), *b1).size(), 350u);
  EXPECT_EQ(CollectBranch(db.get(), *b2).size(), 350u);
  // Master is untouched by the branch-local edits.
  EXPECT_EQ(CollectBranch(db.get(), kMasterBranch).size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(TxnConcurrency, TxnConcurrencyBranchesTest,
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

// A fork of a head commit taken while a one-op transaction on that branch
// is mid-apply: the engine already holds the row, but the branch is not
// yet marked dirty, so a fork that read the branch as clean would clone
// that uncommitted row. BranchAt must wait the transaction out under a
// shared branch lock, so every child holds exactly its commit's rows.
class BranchAtRaceTest : public ::testing::TestWithParam<EngineType> {};

TEST_P(BranchAtRaceTest, ForkOfHeadCommitNeverCarriesUncommittedRows) {
  ScratchDir dir("txn_api_branch_at");
  const Schema schema = TestSchema(2);
  DecibelOptions options;
  options.engine = GetParam();
  options.lock_timeout_ms = 5000;
  auto db = Decibel::Open(dir.path(), schema, options).MoveValueUnsafe();

  // The forker takes one fork per insert the writer starts, so forks
  // spread over the whole load instead of piling up at its start.
  constexpr int64_t kInserts = 900;
  std::atomic<int64_t> started{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int64_t pk = 0; pk < kInserts; ++pk) {
      started = pk + 1;
      Status s = db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 1));
      if (s.ok() && pk % 3 == 2) s = db->CommitBranch(kMasterBranch).status();
      if (!s.ok()) {
        ADD_FAILURE() << s.ToString();
        break;
      }
    }
    done = true;
  });
  std::vector<std::pair<BranchId, CommitId>> forks;
  for (int64_t seen = 0; !done;) {
    if (started == seen) {
      std::this_thread::yield();
      continue;
    }
    seen = started;
    const CommitId head = db->Head(kMasterBranch);
    auto child = db->BranchAt("fork" + std::to_string(forks.size()), head);
    if (!child.ok()) {
      ADD_FAILURE() << child.status().ToString();
      break;
    }
    forks.emplace_back(*child, head);
  }
  writer.join();

  int wrong = 0;
  for (const auto& [child, commit] : forks) {
    ASSERT_OK_AND_ASSIGN(auto at_commit, db->NewScan(ScanSpec::Commit(commit)));
    const auto expected = testing_util::Collect(at_commit.get());
    const auto forked = CollectBranch(db.get(), child);
    if (forked != expected) {
      ++wrong;
      ADD_FAILURE() << "branch " << child << " forked at commit " << commit
                    << " has " << forked.size() << " rows, the commit "
                    << expected.size();
    }
  }
  EXPECT_EQ(wrong, 0) << "of " << forks.size() << " forks";
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BranchAtRaceTest,
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

// --------------------------------------------------------------- WriteBatch

TEST(WriteBatchTest, StagesAndClears) {
  const Schema schema = TestSchema(2);
  WriteBatch batch(&schema);
  EXPECT_TRUE(batch.empty());
  batch.Insert(MakeRecord(schema, 1, 10));
  batch.Update(MakeRecord(schema, 2, 20));
  batch.Delete(3);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.num_appends(), 2u);
  EXPECT_EQ(batch.arena_bytes(), 2 * schema.record_size());

  EXPECT_EQ(batch.ops()[0].kind, WriteBatch::OpKind::kInsert);
  EXPECT_EQ(batch.RecordAt(batch.ops()[0]).pk(), 1);
  EXPECT_EQ(batch.RecordAt(batch.ops()[1]).GetInt32(1), 20);
  EXPECT_EQ(batch.ops()[2].kind, WriteBatch::OpKind::kDelete);
  EXPECT_EQ(batch.ops()[2].pk, 3);

  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.num_appends(), 0u);
}

// --------------------------------------------------------------- LockGuard

TEST(LockGuardTest, ReleasesOnDestruction) {
  LockManager locks;
  {
    auto guard = LockGuard::Acquire(&locks, 1, 0, LockMode::kExclusive);
    ASSERT_TRUE(guard.ok());
    EXPECT_TRUE(guard->held());
    EXPECT_TRUE(locks.IsLocked(0));
  }
  EXPECT_FALSE(locks.IsLocked(0));
}

TEST(LockGuardTest, MoveTransfersOwnership) {
  LockManager locks;
  auto guard = LockGuard::Acquire(&locks, 1, 0, LockMode::kShared);
  ASSERT_TRUE(guard.ok());
  LockGuard moved = std::move(*guard);
  EXPECT_TRUE(moved.held());
  EXPECT_FALSE(guard->held());
  moved.Release();
  EXPECT_FALSE(locks.IsLocked(0));
  moved.Release();  // idempotent
}

TEST(LockGuardTest, AcquireFailureHoldsNothing) {
  LockManager locks(std::chrono::milliseconds(20));
  auto first = LockGuard::Acquire(&locks, 1, 0, LockMode::kExclusive);
  ASSERT_TRUE(first.ok());
  auto second = LockGuard::Acquire(&locks, 2, 0, LockMode::kExclusive);
  EXPECT_TRUE(second.status().IsAborted());
}

TEST(LockScopeTest, ReleasesEverythingAtOnce) {
  LockManager locks;
  {
    LockScope scope(&locks, 7);
    ASSERT_OK(scope.Lock(0, LockMode::kExclusive));
    ASSERT_OK(scope.Lock(1, LockMode::kShared));
    EXPECT_TRUE(locks.IsLocked(0));
    EXPECT_TRUE(locks.IsLocked(1));
  }
  EXPECT_FALSE(locks.IsLocked(0));
  EXPECT_FALSE(locks.IsLocked(1));
}

}  // namespace
}  // namespace decibel
