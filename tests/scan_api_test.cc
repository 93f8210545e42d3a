/// Tests for the unified read-path API: ScanSpec cursors (view selection,
/// predicate/projection pushdown, limits, multi-branch annotation, diff
/// view), point lookups (Get / GetAt), session routing through historical
/// checkouts, and the engine-reported scan counters — parameterized
/// across all three engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/scan_spec.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "query/predicate.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::MakeRecord;
using testing_util::MakeRecordVals;
using testing_util::CollectBranch;
using testing_util::ScratchDir;
using testing_util::TestSchema;

class ScanApiTest : public ::testing::TestWithParam<EngineType> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("scan_api");
    schema_ = TestSchema(2);
    DecibelOptions options;
    options.engine = GetParam();
    options.page_size = 4096;
    auto db = Decibel::Open(dir_->path(), schema_, options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).MoveValueUnsafe();
    // master: pks 0..49 with c1 = pk, c2 = 2*pk; dev adds 100..104
    // (c1 = 1000) and updates evens to c1 = -1.
    ASSERT_OK_AND_ASSIGN(Transaction txn, db_->Begin(kMasterBranch));
    for (int64_t pk = 0; pk < 50; ++pk) {
      Record rec(&schema_);
      rec.SetPk(pk);
      rec.SetInt32(1, static_cast<int32_t>(pk));
      rec.SetInt32(2, static_cast<int32_t>(2 * pk));
      ASSERT_OK(txn.Insert(rec));
    }
    ASSERT_OK(txn.Commit());
    Session s = db_->NewSession();
    ASSERT_OK_AND_ASSIGN(dev_, db_->Branch("dev", &s));
    for (int64_t pk = 100; pk < 105; ++pk) {
      ASSERT_OK(db_->InsertInto(dev_, MakeRecord(schema_, pk, 1000)));
    }
    for (int64_t pk = 0; pk < 50; pk += 2) {
      ASSERT_OK(db_->UpdateIn(dev_, MakeRecord(schema_, pk, -1)));
    }
  }

  Predicate C1(CompareOp op, int64_t value) {
    auto pred = Predicate::Compare(schema_, "c1", op, value);
    EXPECT_TRUE(pred.ok());
    return *pred;
  }

  /// Drains a cursor into pk -> c1.
  std::map<int64_t, int32_t> Drain(ScanCursor* cursor) {
    std::map<int64_t, int32_t> out;
    ScanRow row;
    while (cursor->Next(&row)) {
      out[row.record.pk()] = row.record.GetInt32(1);
    }
    EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    return out;
  }

  std::unique_ptr<ScratchDir> dir_;
  Schema schema_ = TestSchema(2);
  std::unique_ptr<Decibel> db_;
  BranchId dev_ = kInvalidBranch;
};

TEST_P(ScanApiTest, BranchViewMatchesLegacyScan) {
  ASSERT_OK_AND_ASSIGN(auto cursor, db_->NewScan(ScanSpec::Branch(dev_)));
  const auto rows = Drain(cursor.get());
  EXPECT_EQ(rows, CollectBranch(db_.get(), dev_));
  EXPECT_EQ(rows.size(), 55u);
  EXPECT_EQ(cursor->stats().rows_scanned, 55u);
  EXPECT_EQ(cursor->stats().rows_emitted, 55u);
}

TEST_P(ScanApiTest, PredicatePushdownFiltersInsideTheEngine) {
  ASSERT_OK_AND_ASSIGN(
      auto cursor, db_->NewScan(ScanSpec::Branch(kMasterBranch)
                                    .Where(C1(CompareOp::kGe, 40))));
  const auto rows = Drain(cursor.get());
  EXPECT_EQ(rows.size(), 10u);  // c1 = 40..49
  EXPECT_TRUE(rows.count(40));
  EXPECT_EQ(cursor->stats().rows_scanned, 50u);
  EXPECT_EQ(cursor->stats().rows_emitted, 10u);
  EXPECT_EQ(cursor->stats().bytes_scanned, 50u * schema_.record_size());
}

TEST_P(ScanApiTest, ProjectionNarrowsByteAccounting) {
  const size_t c1 = 1;
  ASSERT_OK_AND_ASSIGN(
      auto cursor,
      db_->NewScan(ScanSpec::Branch(kMasterBranch).Project({c1})));
  std::map<int64_t, int32_t> rows = Drain(cursor.get());
  EXPECT_EQ(rows.size(), 50u);
  EXPECT_EQ(rows[7], 7);  // projected column still readable
  // header byte + the projected column's width, per scanned row.
  const uint64_t row_bytes = 1 + schema_.column(c1).width;
  EXPECT_EQ(cursor->stats().bytes_scanned, 50u * row_bytes);
}

TEST_P(ScanApiTest, LimitStopsTheCursor) {
  ASSERT_OK_AND_ASSIGN(
      auto cursor, db_->NewScan(ScanSpec::Branch(kMasterBranch).WithLimit(7)));
  ScanRow row;
  int rows = 0;
  while (cursor->Next(&row)) ++rows;
  EXPECT_OK(cursor->status());
  EXPECT_EQ(rows, 7);
  EXPECT_EQ(cursor->stats().rows_emitted, 7u);
}

TEST_P(ScanApiTest, MultiBranchAnnotatesAfterPredicate) {
  ASSERT_OK_AND_ASSIGN(
      auto cursor, db_->NewScan(ScanSpec::Multi({kMasterBranch, dev_})
                                    .Where(C1(CompareOp::kEq, 1000))));
  ASSERT_EQ(cursor->branches().size(), 2u);
  EXPECT_EQ(cursor->branches()[1], dev_);
  std::set<int64_t> pks;
  ScanRow row;
  while (cursor->Next(&row)) {
    ASSERT_NE(row.branches, nullptr);
    EXPECT_EQ(*row.branches, (std::vector<uint32_t>{1}));  // dev only
    pks.insert(row.record.pk());
  }
  EXPECT_OK(cursor->status());
  EXPECT_EQ(pks, (std::set<int64_t>{100, 101, 102, 103, 104}));
}

TEST_P(ScanApiTest, MultiViewRejectsUnknownBranches) {
  const BranchId unknown = static_cast<BranchId>(999);
  const std::vector<std::vector<BranchId>> lists = {
      {kMasterBranch, unknown}, {unknown, dev_}, {unknown}};
  for (const std::vector<BranchId>& branches : lists) {
    auto cursor = db_->NewScan(ScanSpec::Multi(branches));
    EXPECT_TRUE(cursor.status().IsNotFound()) << cursor.status().ToString();
  }
  // As the single-branch and diff views do, on either side.
  EXPECT_TRUE(db_->NewScan(ScanSpec::Branch(unknown)).status().IsNotFound());
  EXPECT_TRUE(db_->NewScan(ScanSpec::Diff(kMasterBranch, unknown))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(db_->NewScan(ScanSpec::Diff(unknown, kMasterBranch))
                  .status()
                  .IsNotFound());
}

TEST_P(ScanApiTest, HeadsViewResolvesActiveBranches) {
  ASSERT_OK_AND_ASSIGN(auto cursor, db_->NewScan(ScanSpec::Heads()));
  EXPECT_EQ(cursor->branches().size(), 2u);  // master + dev
  uint64_t rows = 0;
  ScanRow row;
  while (cursor->Next(&row)) {
    ASSERT_NE(row.branches, nullptr);
    ++rows;
  }
  EXPECT_OK(cursor->status());
  // 50 shared records (some in two versions) + 5 dev inserts: the union
  // of live record versions across both heads.
  EXPECT_EQ(rows, cursor->stats().rows_emitted);
  EXPECT_GE(rows, 55u);
  // Engines cannot resolve kHeads themselves — the facade must.
  EXPECT_FALSE(db_->engine()->NewScan(ScanSpec::Heads()).ok());
}

TEST_P(ScanApiTest, CommitViewServesHistoricalState) {
  ASSERT_OK_AND_ASSIGN(CommitId commit, db_->CommitBranch(dev_));
  ASSERT_OK(db_->DeleteFrom(dev_, 100));
  ASSERT_OK_AND_ASSIGN(auto cursor, db_->NewScan(ScanSpec::Commit(commit)));
  EXPECT_EQ(Drain(cursor.get()).size(), 55u);  // pre-delete state
  ASSERT_OK_AND_ASSIGN(auto head, db_->NewScan(ScanSpec::Branch(dev_)));
  EXPECT_EQ(Drain(head.get()).size(), 54u);
}

TEST_P(ScanApiTest, DiffViewIsQ2WithPushdown) {
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       db_->NewScan(ScanSpec::Diff(dev_, kMasterBranch)));
  const auto rows = Drain(cursor.get());
  std::set<int64_t> pks;
  for (const auto& [pk, c1] : rows) pks.insert(pk);
  EXPECT_EQ(pks, (std::set<int64_t>{100, 101, 102, 103, 104}));

  auto by_pk = Predicate::Compare(schema_, "pk", CompareOp::kGe, 102);
  ASSERT_TRUE(by_pk.ok());
  ASSERT_OK_AND_ASSIGN(
      auto filtered,
      db_->NewScan(ScanSpec::Diff(dev_, kMasterBranch).Where(*by_pk)));
  EXPECT_EQ(Drain(filtered.get()).size(), 3u);
  EXPECT_EQ(filtered->stats().rows_scanned, 5u);
  EXPECT_EQ(filtered->stats().rows_emitted, 3u);
}

TEST_P(ScanApiTest, GetIsAPointLookup) {
  ASSERT_OK_AND_ASSIGN(Record rec, db_->Get(kMasterBranch, 7));
  EXPECT_EQ(rec.pk(), 7);
  EXPECT_EQ(rec.ref().GetInt32(1), 7);
  // dev sees its own updates and inserts.
  ASSERT_OK_AND_ASSIGN(rec, db_->Get(dev_, 0));
  EXPECT_EQ(rec.ref().GetInt32(1), -1);
  ASSERT_OK_AND_ASSIGN(rec, db_->Get(dev_, 104));
  EXPECT_EQ(rec.ref().GetInt32(1), 1000);
  // master does not see dev's branch-local state.
  EXPECT_TRUE(db_->Get(kMasterBranch, 104).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(rec, db_->Get(kMasterBranch, 0));
  EXPECT_EQ(rec.ref().GetInt32(1), 0);
  // Absent and deleted keys are NotFound.
  EXPECT_TRUE(db_->Get(kMasterBranch, 9999).status().IsNotFound());
  ASSERT_OK(db_->DeleteFrom(dev_, 104));
  EXPECT_TRUE(db_->Get(dev_, 104).status().IsNotFound());
  // Unknown branch is NotFound, not a crash.
  EXPECT_FALSE(db_->Get(static_cast<BranchId>(999), 1).ok());
}

TEST_P(ScanApiTest, GetAtServesHistoricalCommits) {
  ASSERT_OK_AND_ASSIGN(CommitId commit, db_->CommitBranch(dev_));
  ASSERT_OK(db_->UpdateIn(dev_, MakeRecord(schema_, 100, 77)));
  ASSERT_OK_AND_ASSIGN(Record rec, db_->GetAt(commit, 100));
  EXPECT_EQ(rec.ref().GetInt32(1), 1000);  // pre-update version
  ASSERT_OK_AND_ASSIGN(rec, db_->Get(dev_, 100));
  EXPECT_EQ(rec.ref().GetInt32(1), 77);
  EXPECT_TRUE(db_->GetAt(commit, 9999).status().IsNotFound());
}

TEST_P(ScanApiTest, CheckedOutSessionRoutesReadsAndRejectsWrites) {
  ASSERT_OK_AND_ASSIGN(CommitId commit, db_->CommitBranch(dev_));
  ASSERT_OK(db_->DeleteFrom(dev_, 100));
  ASSERT_OK(db_->UpdateIn(dev_, MakeRecord(schema_, 101, 55)));

  Session session = db_->NewSession();
  ASSERT_OK(db_->Checkout(&session, commit));
  ASSERT_FALSE(session.at_head());

  // NewScan(session) serves the commit view, not the branch head.
  ASSERT_OK_AND_ASSIGN(auto cursor, db_->NewScan(session));
  const auto rows = Drain(cursor.get());
  EXPECT_EQ(rows.size(), 55u);
  EXPECT_EQ(rows.at(100), 1000);
  EXPECT_EQ(rows.at(101), 1000);

  // ...including with pushdown on top.
  ASSERT_OK_AND_ASSIGN(
      cursor, db_->NewScan(session, ScanSpec().Where(C1(CompareOp::kEq, 55))));
  EXPECT_EQ(Drain(cursor.get()).size(), 0u);  // 55 exists only at head

  // Get(session) resolves through the checkout too.
  ASSERT_OK_AND_ASSIGN(Record rec, db_->Get(session, 101));
  EXPECT_EQ(rec.ref().GetInt32(1), 1000);
  ASSERT_OK_AND_ASSIGN(rec, db_->Get(session, 100));
  EXPECT_EQ(rec.ref().GetInt32(1), 1000);

  // Writes through a historical checkout stay rejected.
  EXPECT_FALSE(db_->Begin(&session).ok());

  // Back at the head, reads see the branch again and writes work.
  ASSERT_OK(db_->Use(&session, dev_));
  ASSERT_OK_AND_ASSIGN(cursor, db_->NewScan(session));
  EXPECT_EQ(Drain(cursor.get()).at(101), 55);
  ASSERT_OK_AND_ASSIGN(rec, db_->Get(session, 101));
  EXPECT_EQ(rec.ref().GetInt32(1), 55);
  EXPECT_TRUE(db_->Get(session, 100).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(Transaction txn, db_->Begin(&session));
  ASSERT_OK(txn.Insert(MakeRecord(schema_, 500, 1)));
  ASSERT_OK(txn.Commit());
}

TEST_P(ScanApiTest, ZoneMapsSkipPagesAndReduceBytesRead) {
  // Grow master well past one page (record 21 B, page 4 KiB => ~195
  // records/page) with pk-correlated values so page zone maps are
  // selective and pk-disjoint (the version-first skip precondition).
  {
    ASSERT_OK_AND_ASSIGN(Transaction txn, db_->Begin(kMasterBranch));
    for (int64_t pk = 1000; pk < 5000; ++pk) {
      Record rec(&schema_);
      rec.SetPk(pk);
      rec.SetInt32(1, static_cast<int32_t>(pk));
      rec.SetInt32(2, 7);
      ASSERT_OK(txn.Insert(rec));
    }
    ASSERT_OK(txn.Commit());
  }

  std::map<int64_t, int32_t> all;
  uint64_t full_read = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        auto unfiltered, db_->NewScan(ScanSpec::Branch(kMasterBranch)));
    all = Drain(unfiltered.get());
    ASSERT_EQ(all.size(), 4050u);
    full_read = unfiltered->stats().bytes_read;
    EXPECT_GT(full_read, 0u);
    EXPECT_EQ(unfiltered->stats().pages_skipped, 0u);
  }

  // The pushed-down scan returns exactly the filter-on-top rows...
  {
    ASSERT_OK_AND_ASSIGN(
        auto cursor, db_->NewScan(ScanSpec::Branch(kMasterBranch)
                                      .Where(C1(CompareOp::kGe, 4900))));
    const auto rows = Drain(cursor.get());
    std::map<int64_t, int32_t> expected;
    for (const auto& [pk, c1] : all) {
      if (c1 >= 4900) expected[pk] = c1;
    }
    EXPECT_EQ(rows, expected);
    EXPECT_EQ(rows.size(), 100u);
    // ...while zone maps keep most pages untouched: skipping must show
    // up in the counters and in the bytes actually fetched.
    EXPECT_GT(cursor->stats().pages_skipped, 0u);
    EXPECT_LT(cursor->stats().bytes_read, full_read);
  }  // counters flush into the engine when the cursors die

  const EngineStats stats = db_->engine()->Stats();
  EXPECT_GT(stats.pages_skipped + stats.segments_skipped, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
}

TEST_P(ScanApiTest, CompressedScansAreByteIdenticalToUncompressed) {
  // Two fresh databases — page compression off and on — loaded with the
  // exact same content: every read path must return identical rows.
  testing_util::ScratchDir dir1("scan_api_plain");
  testing_util::ScratchDir dir2("scan_api_compressed");
  DecibelOptions options;
  options.engine = GetParam();
  options.page_size = 4096;
  ASSERT_OK_AND_ASSIGN(auto db1,
                       Decibel::Open(dir1.path(), schema_, options));
  options.compress_pages = true;
  ASSERT_OK_AND_ASSIGN(auto db2,
                       Decibel::Open(dir2.path(), schema_, options));

  auto load = [&](Decibel* db) {
    // Compressible batch: repetitive c1 domain, constant c2.
    {
      ASSERT_OK_AND_ASSIGN(Transaction txn, db->Begin(kMasterBranch));
      for (int64_t pk = 1000; pk < 3000; ++pk) {
        Record rec(&schema_);
        rec.SetPk(pk);
        rec.SetInt32(1, static_cast<int32_t>(pk % 16));
        rec.SetInt32(2, 42);
        ASSERT_OK(txn.Insert(rec));
      }
      ASSERT_OK(txn.Commit());
    }
    // Updates and deletes target keys near the end of the insert range:
    // their new versions/tombstones append to the segment's last page,
    // whose pk range already covers them, so the earlier pages stay
    // pk-disjoint (the version-first page-skip precondition).
    for (int64_t pk = 2980; pk < 2985; ++pk) {
      ASSERT_OK(db->UpdateIn(kMasterBranch, MakeRecord(schema_, pk, -5)));
    }
    for (int64_t pk = 2990; pk < 2995; ++pk) {
      ASSERT_OK(db->DeleteFrom(kMasterBranch, pk));
    }
    ASSERT_OK(db->Flush());  // seal + reload through the codec
  };
  load(db1.get());
  load(db2.get());

  // Full scans, pushdown scans, and point reads all agree byte-for-byte.
  EXPECT_EQ(testing_util::CollectBranchAll(db1.get(), kMasterBranch),
            testing_util::CollectBranchAll(db2.get(), kMasterBranch));
  for (auto op : {CompareOp::kEq, CompareOp::kGe, CompareOp::kLt}) {
    ASSERT_OK_AND_ASSIGN(
        auto a,
        db1->NewScan(ScanSpec::Branch(kMasterBranch).Where(C1(op, 7))));
    ASSERT_OK_AND_ASSIGN(
        auto b,
        db2->NewScan(ScanSpec::Branch(kMasterBranch).Where(C1(op, 7))));
    EXPECT_EQ(Drain(a.get()), Drain(b.get()));
  }
  ASSERT_OK_AND_ASSIGN(Record r1, db1->Get(kMasterBranch, 2345));
  ASSERT_OK_AND_ASSIGN(Record r2, db2->Get(kMasterBranch, 2345));
  EXPECT_EQ(r1.data().ToString(), r2.data().ToString());
  EXPECT_TRUE(db2->Get(kMasterBranch, 2992).status().IsNotFound());

  // A predicate outside the stored c1 domain proves pages match-free
  // from the compressed strips (or zone maps) without decoding.
  ASSERT_OK_AND_ASSIGN(
      auto none, db2->NewScan(ScanSpec::Branch(kMasterBranch)
                                  .Where(C1(CompareOp::kGe, 1000))));
  EXPECT_EQ(Drain(none.get()).size(), 0u);
  EXPECT_GT(none->stats().pages_skipped + none->stats().segments_skipped,
            0u);
}

TEST_P(ScanApiTest, EngineReportsScanCounters) {
  const uint64_t rows_before = db_->engine()->Stats().rows_scanned;
  {
    ASSERT_OK_AND_ASSIGN(auto cursor,
                         db_->NewScan(ScanSpec::Branch(kMasterBranch)));
    Drain(cursor.get());
  }  // counters flush when the cursor dies
  const EngineStats stats = db_->engine()->Stats();
  EXPECT_EQ(stats.rows_scanned, rows_before + 50);
  EXPECT_GE(stats.bytes_scanned, 50u * schema_.record_size());
}

TEST_P(ScanApiTest, InvalidSpecsAreRejected) {
  EXPECT_FALSE(db_->NewScan(ScanSpec::Multi({})).ok());
  EXPECT_FALSE(
      db_->NewScan(ScanSpec::Branch(kMasterBranch).Project({99})).ok());
  EXPECT_FALSE(db_->NewScan(ScanSpec::Branch(static_cast<BranchId>(77))).ok());
  EXPECT_FALSE(db_->NewScan(ScanSpec::Commit(static_cast<CommitId>(77))).ok());
  Comparison bad;
  bad.column = 99;
  EXPECT_FALSE(db_->NewScan(ScanSpec::Branch(kMasterBranch)
                                .Where(Predicate().And(bad)))
                   .ok());
}

TEST_P(ScanApiTest, ResolveProjectionMapsNames) {
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> cols,
                       ResolveProjection(schema_, {"c2", "pk"}));
  EXPECT_EQ(cols, (std::vector<size_t>{2, 0}));
  EXPECT_FALSE(ResolveProjection(schema_, {"nope"}).ok());
}

/// One multi-view row: its bytes (or the projected part) and annotation.
using AnnotatedRows =
    std::vector<std::pair<std::string, std::vector<uint32_t>>>;

TEST(ScanApiCrossEngineTest, MultiViewsAgreeAcrossEngines) {
  // The same history on every engine: master spans many 4 KiB pages with
  // pk-correlated c1 (selective page zone maps); dev then diverges with
  // updates inside and outside the filtered range plus inserts, and
  // master updates after the branch point.
  const Schema schema = TestSchema(2);
  auto c1_ge = [&](int64_t value) {
    auto pred = Predicate::Compare(schema, "c1", CompareOp::kGe, value);
    EXPECT_TRUE(pred.ok());
    return *pred;
  };
  struct Outcome {
    AnnotatedRows filtered;
    AnnotatedRows projected;
    AnnotatedRows limited;
    uint64_t pages_skipped = 0;
  };
  auto run = [&](EngineType engine) {
    Outcome out;
    ScratchDir dir("scan_api_multi");
    DecibelOptions options;
    options.engine = engine;
    options.page_size = 4096;
    auto opened = Decibel::Open(dir.path(), schema, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (!opened.ok()) return out;
    std::unique_ptr<Decibel> db = std::move(opened).MoveValueUnsafe();
    auto txn = db->Begin(kMasterBranch);
    EXPECT_TRUE(txn.ok());
    for (int64_t pk = 1000; pk < 5000; ++pk) {
      EXPECT_OK(txn->Insert(
          MakeRecordVals(schema, pk, {static_cast<int32_t>(pk), 7})));
    }
    EXPECT_OK(txn->Commit());
    Session s = db->NewSession();
    auto dev = db->Branch("dev", &s);
    EXPECT_TRUE(dev.ok());
    for (int64_t pk = 4950; pk < 4960; ++pk) {
      EXPECT_OK(db->UpdateIn(*dev, MakeRecordVals(schema, pk, {4999, 8})));
    }
    for (int64_t pk = 1000; pk < 1005; ++pk) {
      EXPECT_OK(db->UpdateIn(*dev, MakeRecordVals(schema, pk, {4990, 9})));
    }
    for (int64_t pk = 6000; pk < 6010; ++pk) {
      EXPECT_OK(db->InsertInto(*dev, MakeRecordVals(schema, pk, {6000, 6})));
    }
    EXPECT_OK(db->UpdateIn(kMasterBranch,
                           MakeRecordVals(schema, 4990, {4991, 5})));

    auto drain = [&](ScanSpec spec, bool projected_only) {
      AnnotatedRows rows;
      auto cursor = db->NewScan(std::move(spec));
      EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
      ScanRow row;
      while ((*cursor)->Next(&row)) {
        EXPECT_NE(row.branches, nullptr);
        // Only the key and the projected c2 are specified when projected.
        std::string bytes = projected_only
                                ? std::to_string(row.record.pk()) + ":" +
                                      std::to_string(row.record.GetInt32(2))
                                : row.record.data().ToString();
        rows.emplace_back(std::move(bytes), *row.branches);
      }
      EXPECT_OK((*cursor)->status());
      out.pages_skipped += (*cursor)->stats().pages_skipped;
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    const std::vector<BranchId> both = {kMasterBranch, *dev};
    out.filtered = drain(ScanSpec::Multi(both).Where(c1_ge(4900)), false);
    out.projected = drain(
        ScanSpec::Multi(both).Where(c1_ge(4900)).Project({2}), true);
    out.limited =
        drain(ScanSpec::Multi(both).Where(c1_ge(4900)).WithLimit(7), false);
    return out;
  };

  const Outcome tf = run(EngineType::kTupleFirst);
  const Outcome vf = run(EngineType::kVersionFirst);
  const Outcome hy = run(EngineType::kHybrid);
  // 100 master versions with c1 >= 4900 (4990 in two versions, 4950..4959
  // split off to dev), dev's 10 updates, 5 re-ranged updates, 10 inserts.
  EXPECT_EQ(tf.filtered.size(), 126u);
  EXPECT_EQ(tf.filtered, vf.filtered);
  EXPECT_EQ(tf.filtered, hy.filtered);
  EXPECT_EQ(tf.projected, vf.projected);
  EXPECT_EQ(tf.projected, hy.projected);
  for (const Outcome* r : {&tf, &vf, &hy}) {
    EXPECT_EQ(r->limited.size(), 7u);
    for (const auto& row : r->limited) {
      EXPECT_TRUE(std::binary_search(tf.filtered.begin(), tf.filtered.end(),
                                     row));
    }
  }
  // Winner bitmaps keep version-first's zone-map page skipping.
  EXPECT_GT(vf.pages_skipped, 0u);
}

/// Records per page of a 4 KiB-page heap file of \p schema's records.
uint64_t RecordsPerPage(const Schema& schema, const std::string& dir) {
  BufferPool pool(1 << 20);
  HeapFile::Options options;
  options.page_size = 4096;
  auto heap = HeapFile::Create(JoinPath(dir, "geometry.dbhf"),
                               schema.record_size(), options, &pool);
  EXPECT_TRUE(heap.ok()) << heap.status().ToString();
  return heap.ok() ? (*heap)->records_per_page() : 1;
}

/// Drains \p spec into pk -> record bytes, adding the cursor's stats to
/// \p stats.
std::map<int64_t, std::string> DrainRows(Decibel* db, const ScanSpec& spec,
                                         ScanStats* stats) {
  std::map<int64_t, std::string> rows;
  auto cursor = db->NewScan(spec);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return rows;
  ScanRow row;
  while ((*cursor)->Next(&row)) {
    rows[row.record.pk()] = row.record.data().ToString();
  }
  EXPECT_OK((*cursor)->status());
  stats->rows_scanned += (*cursor)->stats().rows_scanned;
  stats->pages_skipped += (*cursor)->stats().pages_skipped;
  return rows;
}

/// The rows of an unfiltered \p view scan that \p pred accepts.
std::map<int64_t, std::string> FilterOnTop(Decibel* db, ScanSpec view,
                                           const Predicate& pred) {
  ScanStats ignored;
  std::map<int64_t, std::string> rows = DrainRows(db, view, &ignored);
  std::erase_if(rows, [&](const auto& row) {
    return !pred.Matches(RecordRef(&db->schema(), Slice(row.second)));
  });
  return rows;
}

TEST(ScanApiCrossEngineTest, PrunedPagesAreSkippedWholeOnEveryEngine) {
  // Master holds ~23 pages of a 194-records-per-page layout (not a
  // multiple of the bitmap's 64-bit words) loaded in 300-row batches, so
  // tuple-first extents end inside pages. Even pages hold c1 = 0, which
  // the predicate accepts; odd pages hold c1 = 1, which their zone maps
  // rule out. Deletes punch holes into the branch: every fifth row, all
  // of pages 3 and 4, all but one row of page 5. Each ruled-out page
  // that still holds a live row must count as one skipped page, however
  // many of its bits are set and however many extents it spans, and
  // only the rows of the pages read count as scanned.
  const Schema schema = TestSchema(2);
  std::map<int64_t, std::string> reference;
  for (EngineType engine : {EngineType::kTupleFirst,
                            EngineType::kVersionFirst, EngineType::kHybrid}) {
    SCOPED_TRACE(EngineTypeName(engine));
    ScratchDir dir("scan_api_skip");
    const int64_t rpp =
        static_cast<int64_t>(RecordsPerPage(schema, dir.path()));
    ASSERT_NE(rpp % 64, 0);
    DecibelOptions options;
    options.engine = engine;
    options.page_size = 4096;
    ASSERT_OK_AND_ASSIGN(
        auto db, Decibel::Open(JoinPath(dir.path(), "db"), schema, options));
    const int64_t n = 22 * rpp + rpp / 2;  // the partial last page is even
    for (int64_t start = 0; start < n; start += 300) {
      ASSERT_OK_AND_ASSIGN(Transaction txn, db->Begin(kMasterBranch));
      for (int64_t pk = start; pk < std::min(n, start + 300); ++pk) {
        const int32_t c1 = static_cast<int32_t>((pk / rpp) % 2);
        ASSERT_OK(txn.Insert(MakeRecordVals(schema, pk, {c1, 7})));
      }
      ASSERT_OK(txn.Commit());
    }
    auto doomed = [&](int64_t pk) {
      const int64_t page = pk / rpp;
      return pk % 5 == 0 || page == 3 || page == 4 ||
             (page == 5 && pk != 5 * rpp + 1);
    };
    {
      ASSERT_OK_AND_ASSIGN(Transaction txn, db->Begin(kMasterBranch));
      for (int64_t pk = 0; pk < n; ++pk) {
        if (doomed(pk)) ASSERT_OK(txn.Delete(pk));
      }
      ASSERT_OK(txn.Commit());
    }
    uint64_t ruled_out = 0, examined = 0;
    for (int64_t page = 0; page * rpp < n; ++page) {
      uint64_t live = 0;
      for (int64_t pk = page * rpp; pk < std::min(n, (page + 1) * rpp); ++pk) {
        if (!doomed(pk)) ++live;
      }
      if (page % 2 == 1 && live > 0) ++ruled_out;
      if (page % 2 == 0) examined += live;
    }
    ASSERT_OK_AND_ASSIGN(Predicate pred,
                         Predicate::Compare(schema, "c1", CompareOp::kEq, 0));

    // The bitmap-scanner views: every engine's multi view, and the branch
    // view of tuple-first and hybrid.
    std::vector<ScanSpec> views = {ScanSpec::Multi({kMasterBranch})};
    if (engine != EngineType::kVersionFirst) {
      views.push_back(ScanSpec::Branch(kMasterBranch));
    }
    for (const ScanSpec& view : views) {
      ScanStats stats;
      const auto rows =
          DrainRows(db.get(), ScanSpec(view).Where(pred), &stats);
      EXPECT_EQ(rows, FilterOnTop(db.get(), view, pred));
      EXPECT_EQ(stats.pages_skipped, ruled_out);
      EXPECT_EQ(stats.rows_scanned, examined);
      if (reference.empty()) reference = rows;
      EXPECT_EQ(rows, reference);
    }
    // Version-first's branch view plans its own skips (pk-disjoint pages
    // only); its answer must agree all the same.
    ScanStats branch_stats;
    EXPECT_EQ(DrainRows(db.get(), ScanSpec::Branch(kMasterBranch).Where(pred),
                        &branch_stats),
              reference);
  }
  EXPECT_FALSE(reference.empty());
}

TEST(ScanApiTupleFirstTest, SkipStopsAtTheEndOfAnExtentInsideAPrunedPage) {
  // Master's first batch is 1.5 pages, one extent whose end falls inside
  // master's stripe-file page 1. dev (another stripe) then takes the next
  // extent of the global index space, and master's next batch continues
  // page 1 in a third extent. Page 1 holds only rows the predicate rules
  // out; dev's rows all match. Stepping over page 1 must stop at the
  // first extent's end: the page's end in stripe-file terms lies inside
  // dev's extent.
  const Schema schema = TestSchema(2);
  ScratchDir dir("scan_api_extent");
  const int64_t rpp = static_cast<int64_t>(RecordsPerPage(schema, dir.path()));
  DecibelOptions options;
  options.engine = EngineType::kTupleFirst;
  options.page_size = 4096;
  ASSERT_OK_AND_ASSIGN(
      auto db, Decibel::Open(JoinPath(dir.path(), "db"), schema, options));
  auto insert = [&](BranchId branch, int64_t from, int64_t to,
                    const std::function<int32_t(int64_t)>& c1) {
    ASSERT_OK_AND_ASSIGN(Transaction txn, db->Begin(branch));
    for (int64_t pk = from; pk < to; ++pk) {
      ASSERT_OK(txn.Insert(MakeRecordVals(schema, pk, {c1(pk), 0})));
    }
    ASSERT_OK(txn.Commit());
  };
  // c1 = 0 matches; master's stripe-file page 1 ([rpp, 2 rpp)) holds 1s.
  auto by_page = [&](int64_t pk) { return pk / rpp == 1 ? 1 : 0; };
  insert(kMasterBranch, 0, rpp + rpp / 2, by_page);
  ASSERT_OK(db->CommitBranch(kMasterBranch).status());
  Session session = db->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId dev, db->Branch("dev", &session));
  insert(dev, 100000, 100000 + rpp / 2, [](int64_t) { return 0; });
  insert(kMasterBranch, rpp + rpp / 2, 3 * rpp, by_page);
  ASSERT_OK_AND_ASSIGN(
      Predicate pred, Predicate::Compare(schema, "c1", CompareOp::kEq, 0));

  ScanStats dev_stats;
  const auto dev_rows = DrainRows(
      db.get(), ScanSpec::Branch(dev).Where(pred), &dev_stats);
  EXPECT_EQ(dev_rows, FilterOnTop(db.get(), ScanSpec::Branch(dev), pred));
  EXPECT_EQ(dev_rows.size(), static_cast<size_t>(rpp + rpp / 2));
  EXPECT_EQ(dev_rows.count(100000), 1u);
  EXPECT_EQ(dev_stats.pages_skipped, 1u);

  // Both branches: page 1 is ruled out once in each of its two extents,
  // with dev's extent between them.
  const ScanSpec both = ScanSpec::Multi({kMasterBranch, dev});
  ScanStats both_stats;
  const auto both_rows = DrainRows(db.get(), ScanSpec(both).Where(pred),
                                   &both_stats);
  EXPECT_EQ(both_rows, FilterOnTop(db.get(), both, pred));
  EXPECT_EQ(both_rows.size(), static_cast<size_t>(2 * rpp + rpp / 2));
  EXPECT_EQ(both_stats.pages_skipped, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ScanApiTest,
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
