/// Engine conformance suite: every test runs against all three storage
/// engines (tuple-first, version-first, hybrid) through the Decibel
/// facade and asserts identical logical behaviour — the master invariant
/// of the paper's design space exploration: the physical representations
/// differ, the versioning semantics must not.

#include <dirent.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/decibel.h"
#include "engine/engine.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::Collect;
using testing_util::CollectBranch;
using testing_util::CollectBranchAll;
using testing_util::DiffKeys;
using testing_util::MakeRecord;
using testing_util::MakeRecordVals;
using testing_util::ScratchDir;
using testing_util::TestSchema;

class EngineTest : public ::testing::TestWithParam<EngineType> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("engine");
    schema_ = TestSchema(3);
    Reopen();
  }

  void Reopen(uint32_t page_size = 4096) {
    db_.reset();
    DecibelOptions options;
    options.engine = GetParam();
    options.page_size = page_size;  // small pages exercise page boundaries
    auto db = Decibel::Open(dir_->path(), schema_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).MoveValueUnsafe();
  }

  std::unique_ptr<ScratchDir> dir_;
  Schema schema_ = TestSchema(3);
  std::unique_ptr<Decibel> db_;
};

TEST_P(EngineTest, EmptyMasterScan) {
  EXPECT_TRUE(CollectBranch(db_.get(), kMasterBranch).empty());
}

TEST_P(EngineTest, InsertAndScan) {
  for (int64_t pk = 0; pk < 100; ++pk) {
    ASSERT_OK(db_->InsertInto(kMasterBranch,
                              MakeRecord(schema_, pk, static_cast<int>(pk))));
  }
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[0], 0);
  EXPECT_EQ(rows[99], 99);
}

TEST_P(EngineTest, UpdateReplacesValue) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 7, 1)));
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 7, 2)));
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[7], 2);
}

TEST_P(EngineTest, DeleteHidesKey) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 10)));
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 2, 20)));
  ASSERT_OK(db_->DeleteFrom(kMasterBranch, 1));
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.count(1), 0u);
  EXPECT_EQ(rows[2], 20);
}

TEST_P(EngineTest, BranchSeesParentData) {
  for (int64_t pk = 0; pk < 50; ++pk) {
    ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, pk, 1)));
  }
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  auto rows = CollectBranch(db_.get(), dev);
  EXPECT_EQ(rows.size(), 50u);
}

TEST_P(EngineTest, BranchIsolationBothDirections) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));

  // Child-side modifications invisible to the parent.
  ASSERT_OK(db_->InsertInto(dev, MakeRecord(schema_, 2, 2)));
  ASSERT_OK(db_->UpdateIn(dev, MakeRecord(schema_, 1, 42)));
  // Parent-side modifications after the branch point invisible to child.
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 3, 3)));

  auto master = CollectBranch(db_.get(), kMasterBranch);
  auto child = CollectBranch(db_.get(), dev);
  EXPECT_EQ(master.size(), 2u);
  EXPECT_EQ(master[1], 1);
  EXPECT_EQ(master[3], 3);
  EXPECT_EQ(child.size(), 2u);
  EXPECT_EQ(child[1], 42);
  EXPECT_EQ(child[2], 2);
}

TEST_P(EngineTest, DeleteInChildInvisibleToParent) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->DeleteFrom(dev, 1));
  EXPECT_EQ(CollectBranch(db_.get(), kMasterBranch).size(), 1u);
  EXPECT_EQ(CollectBranch(db_.get(), dev).size(), 0u);
}

TEST_P(EngineTest, ScanCommitSeesSnapshot) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK_AND_ASSIGN(CommitId c1, db_->CommitBranch(kMasterBranch));
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 1, 2)));
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 2, 2)));
  ASSERT_OK_AND_ASSIGN(CommitId c2, db_->CommitBranch(kMasterBranch));

  ASSERT_OK_AND_ASSIGN(auto it1, db_->NewScan(ScanSpec::Commit(c1)));
  auto rows1 = Collect(it1.get());
  EXPECT_EQ(rows1.size(), 1u);
  EXPECT_EQ(rows1[1], 1);

  ASSERT_OK_AND_ASSIGN(auto it2, db_->NewScan(ScanSpec::Commit(c2)));
  auto rows2 = Collect(it2.get());
  EXPECT_EQ(rows2.size(), 2u);
  EXPECT_EQ(rows2[1], 2);
}

TEST_P(EngineTest, CheckoutSessionReadsHistoricalVersion) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK_AND_ASSIGN(CommitId c1, db_->CommitBranch(kMasterBranch));
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 1, 9)));

  Session s = db_->NewSession();
  ASSERT_OK(db_->Checkout(&s, c1));
  ASSERT_OK_AND_ASSIGN(auto it, db_->NewScan(s));
  auto rows = Collect(it.get());
  EXPECT_EQ(rows[1], 1);
  // Writes to a historical checkout are rejected.
  EXPECT_FALSE(db_->Begin(&s).ok());
}

TEST_P(EngineTest, BranchFromHistoricalCommit) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK_AND_ASSIGN(CommitId c1, db_->CommitBranch(kMasterBranch));
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 2, 2)));
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 1, 99)));
  ASSERT_OK_AND_ASSIGN(CommitId c2, db_->CommitBranch(kMasterBranch));
  (void)c2;

  ASSERT_OK_AND_ASSIGN(BranchId old, db_->BranchAt("old", c1));
  auto rows = CollectBranch(db_.get(), old);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[1], 1);

  // The revived branch evolves independently.
  ASSERT_OK(db_->InsertInto(old, MakeRecord(schema_, 10, 10)));
  EXPECT_EQ(CollectBranch(db_.get(), old).size(), 2u);
  EXPECT_EQ(CollectBranch(db_.get(), kMasterBranch).size(), 2u);
}

TEST_P(EngineTest, DeepBranchChain) {
  // The "deep" shape of §4.1: a linear chain, inserts always at the tail.
  Session s = db_->NewSession();
  BranchId current = kMasterBranch;
  for (int level = 0; level < 8; ++level) {
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_OK(db_->InsertInto(
          current, MakeRecord(schema_, level * 100 + i, level)));
    }
    ASSERT_OK(db_->Use(&s, current));
    ASSERT_OK_AND_ASSIGN(current,
                         db_->Branch("level" + std::to_string(level), &s));
  }
  auto rows = CollectBranch(db_.get(), current);
  EXPECT_EQ(rows.size(), 80u);
  EXPECT_EQ(rows[0], 0);
  EXPECT_EQ(rows[705], 7);
  // The root still only sees its own level.
  EXPECT_EQ(CollectBranch(db_.get(), kMasterBranch).size(), 10u);
}

TEST_P(EngineTest, FlatManyChildren) {
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, i, 0)));
  }
  Session s = db_->NewSession();
  std::vector<BranchId> children;
  for (int c = 0; c < 6; ++c) {
    ASSERT_OK(db_->Use(&s, kMasterBranch));
    ASSERT_OK_AND_ASSIGN(BranchId child,
                         db_->Branch("child" + std::to_string(c), &s));
    children.push_back(child);
    ASSERT_OK(db_->InsertInto(child, MakeRecord(schema_, 1000 + c, c + 1)));
  }
  for (int c = 0; c < 6; ++c) {
    auto rows = CollectBranch(db_.get(), children[c]);
    EXPECT_EQ(rows.size(), 21u) << "child " << c;
    EXPECT_EQ(rows[1000 + c], c + 1);
    EXPECT_EQ(rows.count(1000 + ((c + 1) % 6)), 0u);  // sibling isolation
  }
}

TEST_P(EngineTest, MultiScanAnnotations) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->InsertInto(dev, MakeRecord(schema_, 2, 2)));
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 3, 3)));

  std::map<int64_t, std::set<uint32_t>> membership;
  ASSERT_OK_AND_ASSIGN(auto it,
                       db_->NewScan(ScanSpec::Multi({kMasterBranch, dev})));
  ScanRow row;
  while (it->Next(&row)) {
    for (uint32_t p : *row.branches) membership[row.record.pk()].insert(p);
  }
  ASSERT_OK(it->status());
  ASSERT_EQ(membership.size(), 3u);
  EXPECT_EQ(membership[1], (std::set<uint32_t>{0, 1}));  // shared
  EXPECT_EQ(membership[2], (std::set<uint32_t>{1}));     // dev only
  EXPECT_EQ(membership[3], (std::set<uint32_t>{0}));     // master only
}

TEST_P(EngineTest, MultiScanEmitsEachRecordOnce) {
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, i, 1)));
  }
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  (void)dev;
  int emitted = 0;
  ASSERT_OK_AND_ASSIGN(auto it,
                       db_->NewScan(ScanSpec::Multi({kMasterBranch, dev})));
  ScanRow row;
  while (it->Next(&row)) {
    ++emitted;
    EXPECT_EQ(row.branches->size(), 2u);  // identical content in both
  }
  ASSERT_OK(it->status());
  EXPECT_EQ(emitted, 30);
}

TEST_P(EngineTest, DiffByKey) {
  // Q2 semantics: keys in A not in B.
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 2, 2)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->InsertInto(dev, MakeRecord(schema_, 3, 3)));      // dev only
  ASSERT_OK(db_->UpdateIn(dev, MakeRecord(schema_, 1, 99)));       // updated
  ASSERT_OK(db_->DeleteFrom(dev, 2));                              // deleted
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 4, 4)));

  // In master, not in dev: pk 2 (deleted in dev) and pk 4 (new in master).
  EXPECT_EQ(DiffKeys(db_.get(), kMasterBranch, dev),
            (std::set<int64_t>{2, 4}));
  // In dev, not in master: pk 3.
  EXPECT_EQ(DiffKeys(db_.get(), dev, kMasterBranch), (std::set<int64_t>{3}));
}

TEST_P(EngineTest, DiffIdenticalBranchesIsEmpty) {
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, i, 1)));
  }
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  EXPECT_TRUE(DiffKeys(db_.get(), kMasterBranch, dev).empty());
  EXPECT_TRUE(DiffKeys(db_.get(), dev, kMasterBranch).empty());
}

// The rows \p spec selects as record bytes, sorted (a multiset).
std::vector<std::string> ScanRows(Decibel* db, const ScanSpec& spec) {
  std::vector<std::string> rows;
  auto it = db->NewScan(spec);
  EXPECT_TRUE(it.ok()) << it.status().ToString();
  if (!it.ok()) return rows;
  ScanRow row;
  while ((*it)->Next(&row)) rows.push_back(row.record.data().ToString());
  EXPECT_TRUE((*it)->status().ok());
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_P(EngineTest, DiffMatchesReferenceFromBranchScans) {
  // 512-byte pages hold 23 rows, so the changed rows span many pages and,
  // on hybrid, several segments. Every write stores a fresh value, so a
  // version's bytes identify it.
  db_.reset();
  dir_ = std::make_unique<ScratchDir>("engine_diff");
  Reopen(512);
  int32_t value = 1;
  auto write = [&](BranchId b, int64_t pk, bool insert) {
    const Record rec = MakeRecord(schema_, pk, value++);
    return insert ? db_->InsertInto(b, rec) : db_->UpdateIn(b, rec);
  };
  for (int64_t pk = 0; pk < 120; ++pk) {
    ASSERT_OK(write(kMasterBranch, pk, true));
  }
  ASSERT_OK_AND_ASSIGN(CommitId base, db_->CommitBranch(kMasterBranch));
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->BranchAt("dev", base));
  ASSERT_OK_AND_ASSIGN(BranchId feat, db_->BranchAt("feat", base));
  for (int64_t pk = 0; pk < 30; ++pk) ASSERT_OK(write(dev, pk, false));
  for (int64_t pk = 30; pk < 35; ++pk) ASSERT_OK(db_->DeleteFrom(dev, pk));
  for (int64_t pk = 1000; pk < 1015; ++pk) ASSERT_OK(write(dev, pk, true));
  // 20..29 change on both sides; 30..34 change on master, die on dev.
  for (int64_t pk = 20; pk < 45; ++pk) {
    ASSERT_OK(write(kMasterBranch, pk, false));
  }
  for (int64_t pk = 2000; pk < 2010; ++pk) {
    ASSERT_OK(write(kMasterBranch, pk, true));
  }
  // feat's changes reach master through a merge.
  for (int64_t pk = 60; pk < 80; ++pk) ASSERT_OK(write(feat, pk, false));
  ASSERT_OK(db_->DeleteFrom(feat, 90));
  ASSERT_OK(write(feat, 3000, true));
  ASSERT_OK(db_->CommitBranch(feat).status());
  ASSERT_OK(db_->Merge(kMasterBranch, feat, MergePolicy::kThreeWayLeft)
                .status());
  ASSERT_OK_AND_ASSIGN(CommitId dev_head, db_->CommitBranch(dev));
  ASSERT_OK_AND_ASSIGN(BranchId copy, db_->BranchAt("copy", dev_head));
  if (GetParam() == EngineType::kHybrid) {
    EXPECT_GE(db_->Stats().engine.num_segments, 3u);
  }

  auto row_pk = [&](const std::string& row) {
    return RecordRef(&schema_, Slice(row)).pk();
  };
  // Rows of a whose key b lacks, sorted.
  auto reference = [&](BranchId a, BranchId b) {
    std::set<int64_t> keys_b;
    for (const std::string& r : ScanRows(db_.get(), ScanSpec::Branch(b))) {
      keys_b.insert(row_pk(r));
    }
    std::vector<std::string> out;
    for (const std::string& r : ScanRows(db_.get(), ScanSpec::Branch(a))) {
      if (keys_b.count(row_pk(r)) == 0) out.push_back(r);
    }
    return out;
  };

  const std::pair<BranchId, BranchId> pairs[] = {
      {kMasterBranch, dev}, {dev, kMasterBranch}, {kMasterBranch, feat},
      {feat, kMasterBranch}, {dev, copy},         {copy, copy}};
  for (const auto& [a, b] : pairs) {
    SCOPED_TRACE("diff(" + std::to_string(a) + ", " + std::to_string(b) +
                 ")");
    const std::vector<std::string> want = reference(a, b);
    if (a == dev && b == copy) {
      EXPECT_TRUE(want.empty() && reference(b, a).empty());
    } else if (a != b) {
      EXPECT_GE(want.size() + reference(b, a).size(), 10u);
    }
    EXPECT_EQ(ScanRows(db_.get(), ScanSpec::Diff(a, b)), want);

    // The predicate filters inside the view, and the limit stops it.
    auto pred = Predicate::Compare(schema_, "c1", CompareOp::kGe, 150);
    ASSERT_TRUE(pred.ok());
    std::vector<std::string> want_filtered;
    for (const std::string& r : want) {
      if (pred->Matches(RecordRef(&schema_, Slice(r)))) {
        want_filtered.push_back(r);
      }
    }
    EXPECT_EQ(ScanRows(db_.get(), ScanSpec::Diff(a, b).Where(*pred)),
              want_filtered);
    const uint64_t limit = 3;
    const std::vector<std::string> limited = ScanRows(
        db_.get(), ScanSpec::Diff(a, b).Where(*pred).WithLimit(limit));
    EXPECT_EQ(limited.size(), std::min<size_t>(limit, want_filtered.size()));
    for (const std::string& r : limited) {
      EXPECT_TRUE(std::binary_search(want_filtered.begin(),
                                     want_filtered.end(), r));
    }
  }
  // Those walks read sealed pages through the engine's buffer pool, and
  // Stats() reports it.
  const EngineStats stats = db_->Stats().engine;
  EXPECT_GT(stats.pool_misses, 0u);
  EXPECT_GT(stats.pool_hits, 0u);
  EXPECT_GT(stats.pool_resident_bytes, 0u);
}

TEST_P(EngineTest, MergeUnionOfNonConflictingChanges) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 2, 2)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));

  ASSERT_OK(db_->InsertInto(dev, MakeRecord(schema_, 3, 3)));   // add in dev
  ASSERT_OK(db_->UpdateIn(dev, MakeRecord(schema_, 2, 22)));    // update dev
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 4, 4)));

  ASSERT_OK_AND_ASSIGN(
      MergeInfo info,
      db_->Merge(kMasterBranch, dev, MergePolicy::kThreeWayLeft));
  EXPECT_EQ(info.result.conflicts, 0u);

  auto rows = CollectBranch(db_.get(), kMasterBranch);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1], 1);
  EXPECT_EQ(rows[2], 22);  // dev's non-conflicting update adopted
  EXPECT_EQ(rows[3], 3);
  EXPECT_EQ(rows[4], 4);
}

TEST_P(EngineTest, MergeTwoWayPrecedence) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 1, 100)));
  ASSERT_OK(db_->UpdateIn(dev, MakeRecord(schema_, 1, 200)));

  {
    ASSERT_OK_AND_ASSIGN(
        MergeInfo info,
        db_->Merge(kMasterBranch, dev, MergePolicy::kTwoWayLeft));
    EXPECT_GE(info.result.conflicts, 1u);
    auto rows = CollectBranch(db_.get(), kMasterBranch);
    EXPECT_EQ(rows[1], 100);  // left (into) wins
  }
}

TEST_P(EngineTest, MergeTwoWayRightPrecedence) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 1, 100)));
  ASSERT_OK(db_->UpdateIn(dev, MakeRecord(schema_, 1, 200)));
  ASSERT_OK_AND_ASSIGN(
      MergeInfo info,
      db_->Merge(kMasterBranch, dev, MergePolicy::kTwoWayRight));
  EXPECT_GE(info.result.conflicts, 1u);
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  EXPECT_EQ(rows[1], 200);  // right (from) wins
}

TEST_P(EngineTest, MergeThreeWayAutoMergesDisjointFields) {
  // §2.2.3: "non-overlapping field updates are auto-merged".
  ASSERT_OK(db_->InsertInto(kMasterBranch,
                            MakeRecordVals(schema_, 1, {10, 20, 30})));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(
      db_->UpdateIn(kMasterBranch, MakeRecordVals(schema_, 1, {11, 20, 30})));
  ASSERT_OK(db_->UpdateIn(dev, MakeRecordVals(schema_, 1, {10, 20, 33})));

  ASSERT_OK_AND_ASSIGN(
      MergeInfo info,
      db_->Merge(kMasterBranch, dev, MergePolicy::kThreeWayLeft));
  EXPECT_EQ(info.result.conflicts, 0u);
  EXPECT_EQ(info.result.field_merges, 1u);

  auto rows = CollectBranchAll(db_.get(), kMasterBranch);
  EXPECT_EQ(rows[1], (std::vector<int32_t>{11, 20, 33}));
}

TEST_P(EngineTest, MergeThreeWayOverlappingFieldPrecedence) {
  ASSERT_OK(db_->InsertInto(kMasterBranch,
                            MakeRecordVals(schema_, 1, {10, 20, 30})));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(
      db_->UpdateIn(kMasterBranch, MakeRecordVals(schema_, 1, {11, 20, 30})));
  ASSERT_OK(db_->UpdateIn(dev, MakeRecordVals(schema_, 1, {12, 20, 33})));

  ASSERT_OK_AND_ASSIGN(
      MergeInfo info,
      db_->Merge(kMasterBranch, dev, MergePolicy::kThreeWayLeft));
  EXPECT_EQ(info.result.conflicts, 1u);

  auto rows = CollectBranchAll(db_.get(), kMasterBranch);
  // Field 0 conflicts -> left's 11; field 2 is dev-only -> 33.
  EXPECT_EQ(rows[1], (std::vector<int32_t>{11, 20, 33}));
}

TEST_P(EngineTest, MergeDeleteVsModifyConflict) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->DeleteFrom(kMasterBranch, 1));
  ASSERT_OK(db_->UpdateIn(dev, MakeRecord(schema_, 1, 5)));

  ASSERT_OK_AND_ASSIGN(
      MergeInfo info,
      db_->Merge(kMasterBranch, dev, MergePolicy::kThreeWayLeft));
  EXPECT_GE(info.result.conflicts, 1u);
  // Left wins: the delete stands.
  EXPECT_EQ(CollectBranch(db_.get(), kMasterBranch).count(1), 0u);
}

TEST_P(EngineTest, MergeDeletePropagatesWhenUncontested) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 2, 2)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->DeleteFrom(dev, 1));

  ASSERT_OK_AND_ASSIGN(
      MergeInfo info,
      db_->Merge(kMasterBranch, dev, MergePolicy::kThreeWayLeft));
  EXPECT_EQ(info.result.conflicts, 0u);
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  EXPECT_EQ(rows.count(1), 0u);
  EXPECT_EQ(rows[2], 2);
}

TEST_P(EngineTest, BranchContinuesAfterMerge) {
  // Curation shape (§4.1): dev merges into mainline, work continues.
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->InsertInto(dev, MakeRecord(schema_, 2, 2)));
  ASSERT_OK_AND_ASSIGN(
      MergeInfo m1, db_->Merge(kMasterBranch, dev, MergePolicy::kThreeWayLeft));
  (void)m1;

  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 3, 3)));
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 2, 22)));
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2], 22);

  // A second development round.
  ASSERT_OK(db_->Use(&s, kMasterBranch));
  ASSERT_OK_AND_ASSIGN(BranchId dev2, db_->Branch("dev2", &s));
  ASSERT_OK(db_->UpdateIn(dev2, MakeRecord(schema_, 3, 33)));
  ASSERT_OK_AND_ASSIGN(
      MergeInfo m2,
      db_->Merge(kMasterBranch, dev2, MergePolicy::kThreeWayLeft));
  (void)m2;
  rows = CollectBranch(db_.get(), kMasterBranch);
  EXPECT_EQ(rows[3], 33);
  EXPECT_EQ(rows[2], 22);
}

TEST_P(EngineTest, ScanHeadsCoversActiveBranches) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->InsertInto(dev, MakeRecord(schema_, 2, 2)));

  std::set<int64_t> pks;
  ASSERT_OK_AND_ASSIGN(auto it, db_->NewScan(ScanSpec::Heads()));
  ScanRow row;
  while (it->Next(&row)) {
    pks.insert(row.record.pk());
  }
  ASSERT_OK(it->status());
  EXPECT_EQ(it->branches().size(), 2u);
  EXPECT_EQ(pks, (std::set<int64_t>{1, 2}));
}

TEST_P(EngineTest, ManyRecordsAcrossPages) {
  // More data than one 4 KB page holds, to cross page boundaries.
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_OK(db_->InsertInto(kMasterBranch,
                              MakeRecord(schema_, i, static_cast<int>(i))));
  }
  for (int64_t i = 0; i < 2000; i += 3) {
    ASSERT_OK(db_->UpdateIn(kMasterBranch,
                            MakeRecord(schema_, i, static_cast<int>(-i))));
  }
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  ASSERT_EQ(rows.size(), 2000u);
  EXPECT_EQ(rows[3], -3);
  EXPECT_EQ(rows[4], 4);
}

TEST_P(EngineTest, ReopenPreservesEverything) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db_->Branch("dev", &s));
  ASSERT_OK(db_->InsertInto(dev, MakeRecord(schema_, 2, 2)));
  ASSERT_OK_AND_ASSIGN(CommitId c, db_->CommitBranch(dev));
  ASSERT_OK(db_->UpdateIn(dev, MakeRecord(schema_, 2, 22)));
  ASSERT_OK(db_->Flush());

  Reopen();
  EXPECT_EQ(CollectBranch(db_.get(), kMasterBranch).size(), 1u);
  auto dev_rows = CollectBranch(db_.get(), dev);
  ASSERT_EQ(dev_rows.size(), 2u);
  EXPECT_EQ(dev_rows[2], 22);
  ASSERT_OK_AND_ASSIGN(auto it, db_->NewScan(ScanSpec::Commit(c)));
  auto commit_rows = Collect(it.get());
  EXPECT_EQ(commit_rows[2], 2);
  // Branch names survive too.
  ASSERT_OK(db_->Use(&s, "dev"));
  EXPECT_EQ(s.branch(), dev);
}

TEST_P(EngineTest, UpdatesOnReopenedDatabase) {
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_OK(db_->Flush());
  Reopen();
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 1, 2)));
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 2, 2)));
  auto rows = CollectBranch(db_.get(), kMasterBranch);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], 2);
}

/// Open descriptors of this process, via /proc (Linux-only; the suite
/// skips elsewhere).
int CountOpenFds() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

TEST_P(EngineTest, RetiredBranchesDoNotPinFileDescriptors) {
  // The agentic lifecycle: branches are born, carry one unit of work, and
  // die by the hundreds. Retiring a branch must release every descriptor
  // it pinned (head segments, commit histories) or the process crawls to
  // EMFILE under churn.
  const int before = CountOpenFds();
  if (before < 0) GTEST_SKIP() << "/proc/self/fd not available";
  constexpr int kCycles = 40;
  Session s = db_->NewSession();
  for (int c = 0; c < kCycles; ++c) {
    ASSERT_OK(db_->Use(&s, kMasterBranch));
    ASSERT_OK_AND_ASSIGN(BranchId b,
                         db_->Branch("agent_c" + std::to_string(c), &s));
    for (int i = 0; i < 4; ++i) {
      ASSERT_OK(db_->InsertInto(b, MakeRecord(schema_, c * 4 + i, c)));
    }
    ASSERT_OK_AND_ASSIGN(CommitId cid, db_->CommitBranch(b));
    (void)cid;
    if (c % 4 != 0) {
      ASSERT_OK_AND_ASSIGN(
          MergeInfo m, db_->Merge(kMasterBranch, b, MergePolicy::kThreeWayLeft));
      (void)m;
    }
    ASSERT_OK(db_->RetireBranch(b));
  }
  const int after = CountOpenFds();
  // Master's own working set (its open head, lazily-opened readers, the
  // engine meta) may cost a few descriptors; 40 retired branches must not
  // add ~2-4 fds each the way held handles would.
  EXPECT_LT(after - before, 16)
      << "branch churn leaked fds: " << before << " -> " << after;
  // And the data all landed.
  EXPECT_EQ(CollectBranch(db_.get(), kMasterBranch).size(), 120u);
}

TEST_P(EngineTest, RetiredBranchesFreeTheirPkIndex) {
  // Agent churn over a shared dataset: each cycle forks a 50k-row master
  // at its head, writes a few rows, commits and retires the fork. A fork
  // shares master's frozen pk index and retirement drops the fork's own,
  // so the charged index memory no longer grows by a master-sized copy
  // per fork, and every retired branch still answers Gets (its index is
  // rebuilt on demand). What a fork still adds is its bitmap columns,
  // which retirement keeps: one bit per master row in tuple-first, per
  // ancestor segment row in hybrid.
  constexpr int64_t kRows = 50000;
  constexpr int kCycles = 200;
  constexpr int kWrites = 8;
  {
    ASSERT_OK_AND_ASSIGN(Transaction txn, db_->Begin(kMasterBranch));
    for (int64_t pk = 0; pk < kRows; ++pk) {
      ASSERT_OK(txn.Insert(MakeRecord(schema_, pk, static_cast<int>(pk))));
    }
    ASSERT_OK(txn.Commit());
  }
  ASSERT_OK_AND_ASSIGN(CommitId loaded, db_->CommitBranch(kMasterBranch));
  (void)loaded;
  const uint64_t master_index_bytes = db_->Stats().engine.index_memory_bytes;
  std::vector<BranchId> retired;
  uint64_t warm_bytes = 0;
  for (int c = 0; c < kCycles; ++c) {
    ASSERT_OK_AND_ASSIGN(
        BranchId b, db_->BranchAt("churn" + std::to_string(c),
                                  db_->Head(kMasterBranch)));
    for (int i = 0; i < kWrites; ++i) {
      ASSERT_OK(db_->InsertInto(
          b, MakeRecord(schema_, kRows + c * kWrites + i, -c)));
    }
    ASSERT_OK(db_->UpdateIn(b, MakeRecord(schema_, c, -c)));
    ASSERT_OK(db_->CommitBranch(b).status());
    ASSERT_OK(db_->RetireBranch(b));
    retired.push_back(b);
    if (c == 19) warm_bytes = db_->Stats().engine.index_memory_bytes;
  }
  const uint64_t end_bytes = db_->Stats().engine.index_memory_bytes;
  // A fork adds under 1/64 of what the load charged (a pk-index copy per
  // fork would add all of it).
  EXPECT_LT((end_bytes - warm_bytes) / (kCycles - 20), master_index_bytes / 64)
      << "index bytes " << master_index_bytes << " after the load, "
      << warm_bytes << " after 20 cycles, " << end_bytes << " after "
      << kCycles;
  for (int c = 0; c < kCycles; ++c) {
    const BranchId b = retired[c];
    ASSERT_OK_AND_ASSIGN(Record own,
                         db_->Get(b, kRows + c * kWrites + kWrites - 1));
    EXPECT_EQ(own.ref().GetInt32(1), -c);
    ASSERT_OK_AND_ASSIGN(Record updated, db_->Get(b, c));
    EXPECT_EQ(updated.ref().GetInt32(1), -c);
    ASSERT_OK_AND_ASSIGN(Record shared, db_->Get(b, kRows - 1 - c));
    EXPECT_EQ(shared.ref().GetInt32(1), static_cast<int>(kRows - 1 - c));
    EXPECT_TRUE(db_->Get(b, kRows + kCycles * kWrites).status().IsNotFound());
  }
  ASSERT_OK_AND_ASSIGN(Record master_row, db_->Get(kMasterBranch, 3));
  EXPECT_EQ(master_row.ref().GetInt32(1), 3);
  EXPECT_TRUE(db_->Get(kMasterBranch, kRows).status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::Values(EngineType::kTupleFirst,
                                           EngineType::kVersionFirst,
                                           EngineType::kHybrid),
                         [](const auto& info) {
                           return std::string(EngineTypeName(info.param)) ==
                                          "tuple-first"
                                      ? "TupleFirst"
                                  : EngineTypeName(info.param) ==
                                          std::string("version-first")
                                      ? "VersionFirst"
                                      : "Hybrid";
                         });

// ------------------------------------------------ engine-level contract

/// The paths under \p dir, recursively; empty when \p dir is a file.
std::set<std::string> ListTree(const std::string& dir) {
  std::set<std::string> out;
  auto names = ListDir(dir);
  if (!names.ok()) return out;
  for (const std::string& name : names.value()) {
    if (name == "." || name == "..") continue;
    const std::string path = JoinPath(dir, name);
    out.insert(path);
    for (const std::string& inner : ListTree(path)) out.insert(inner);
  }
  return out;
}

/// Drives the engines directly (MakeEngine), below the facade's graph
/// checks, so every engine must reject an unknown branch itself.
class EngineContractTest : public ::testing::TestWithParam<EngineType> {};

TEST_P(EngineContractTest, UnknownBranchIsNotFoundAndWritesNothing) {
  ScratchDir dir("contract");
  const Schema schema = TestSchema(3);
  EngineOptions options;
  options.directory = JoinPath(dir.path(), "engine");
  options.page_size = 4096;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<StorageEngine> engine,
                       MakeEngine(GetParam(), schema, options));
  WriteBatch batch(&schema);
  batch.Insert(MakeRecord(schema, 1, 1));
  ASSERT_OK(engine->ApplyBatch(kMasterBranch, batch));
  constexpr CommitId kBase = 1;
  ASSERT_OK(engine->Commit(kMasterBranch, kBase));
  const std::set<std::string> before = ListTree(options.directory);
  ASSERT_FALSE(before.empty());

  constexpr BranchId kUnknown = 999;
  auto expect_not_found = [](const Status& s, const std::string& what) {
    EXPECT_TRUE(s.IsNotFound()) << what << ": " << s.ToString();
  };
  expect_not_found(engine->Get(kUnknown, 1).status(), "Get");
  expect_not_found(engine->ApplyBatch(kUnknown, batch), "ApplyBatch");
  expect_not_found(engine->Commit(kUnknown, kBase + 1), "Commit");
  expect_not_found(engine->CreateBranch(7, 998, kBase, /*at_head=*/true),
                   "CreateBranch at head");
  expect_not_found(engine->CreateBranch(8, 998, kBase, /*at_head=*/false),
                   "CreateBranch historical");
  expect_not_found(engine->NewScan(ScanSpec::Branch(kUnknown)).status(),
                   "branch scan");
  expect_not_found(
      engine->NewScan(ScanSpec::Multi({kMasterBranch, kUnknown})).status(),
      "multi scan");
  expect_not_found(
      engine->NewScan(ScanSpec::Diff(kMasterBranch, kUnknown)).status(),
      "diff scan");
  expect_not_found(
      engine->NewScan(ScanSpec::Diff(kUnknown, kMasterBranch)).status(),
      "diff scan, unknown side first");
  EXPECT_OK(engine->ReleaseBranch(kUnknown));

  EXPECT_EQ(ListTree(options.directory), before);
  // No rejected call registered a branch, and master is untouched.
  for (BranchId b : {BranchId{7}, BranchId{8}, BranchId{998}}) {
    expect_not_found(engine->NewScan(ScanSpec::Branch(b)).status(),
                     "branch " + std::to_string(b));
  }
  ASSERT_OK_AND_ASSIGN(Record row, engine->Get(kMasterBranch, 1));
  EXPECT_EQ(row.ref().GetInt32(1), 1);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineContractTest,
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

}  // namespace
}  // namespace decibel
