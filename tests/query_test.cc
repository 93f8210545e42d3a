/// Tests for the query layer: predicates, the four benchmark query
/// families (Table 1), and the VQuel mini-language — parameterized across
/// all three engines where the query plans touch engine code.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/predicate.h"
#include "query/queries.h"
#include "query/vquel.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::MakeRecord;
using testing_util::MakeRecordVals;
using testing_util::ScratchDir;
using testing_util::TestSchema;

// --------------------------------------------------------------- Predicate

TEST(PredicateTest, EmptyMatchesEverything) {
  const Schema schema = TestSchema(2);
  const Record rec = MakeRecord(schema, 1, 5);
  EXPECT_TRUE(Predicate().Matches(rec.ref()));
}

TEST(PredicateTest, IntComparisons) {
  const Schema schema = TestSchema(2);
  const Record rec = MakeRecord(schema, 1, 5);
  struct {
    CompareOp op;
    int64_t value;
    bool want;
  } cases[] = {
      {CompareOp::kEq, 5, true},  {CompareOp::kEq, 6, false},
      {CompareOp::kNe, 6, true},  {CompareOp::kLt, 6, true},
      {CompareOp::kLt, 5, false}, {CompareOp::kLe, 5, true},
      {CompareOp::kGt, 4, true},  {CompareOp::kGe, 5, true},
      {CompareOp::kGe, 6, false},
  };
  for (const auto& c : cases) {
    auto pred = Predicate::Compare(schema, "c1", c.op, c.value);
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(pred->Matches(rec.ref()), c.want)
        << CompareOpName(c.op) << " " << c.value;
  }
}

TEST(PredicateTest, ConjunctionAndPkColumn) {
  const Schema schema = TestSchema(2);
  auto pred = Predicate::Compare(schema, "pk", CompareOp::kGe, 10);
  ASSERT_TRUE(pred.ok());
  Comparison second;
  second.column = 1;
  second.op = CompareOp::kLt;
  second.int_value = 100;
  pred->And(second);
  EXPECT_TRUE(pred->Matches(MakeRecord(schema, 15, 50).ref()));
  EXPECT_FALSE(pred->Matches(MakeRecord(schema, 5, 50).ref()));
  EXPECT_FALSE(pred->Matches(MakeRecord(schema, 15, 150).ref()));
}

TEST(PredicateTest, RejectsUnknownColumn) {
  const Schema schema = TestSchema(2);
  EXPECT_FALSE(Predicate::Compare(schema, "nope", CompareOp::kEq, 1).ok());
}

TEST(PredicateTest, DoubleComparisons) {
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"score", FieldType::kDouble, 0}});
  ASSERT_TRUE(schema.ok());
  Record rec(&*schema);
  rec.SetPk(1);
  rec.SetDouble(1, 2.5);
  struct {
    CompareOp op;
    double value;
    bool want;
  } cases[] = {
      {CompareOp::kEq, 2.5, true},  {CompareOp::kEq, 2.4, false},
      {CompareOp::kNe, 2.4, true},  {CompareOp::kLt, 3.0, true},
      {CompareOp::kLt, 2.5, false}, {CompareOp::kLe, 2.5, true},
      {CompareOp::kGt, 2.0, true},  {CompareOp::kGe, 2.5, true},
      {CompareOp::kGe, 2.6, false},
  };
  for (const auto& c : cases) {
    auto pred = Predicate::CompareDouble(*schema, "score", c.op, c.value);
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(pred->Matches(rec.ref()), c.want)
        << CompareOpName(c.op) << " " << c.value;
  }
  // Unknown columns and type mismatches are rejected.
  EXPECT_FALSE(
      Predicate::CompareDouble(*schema, "nope", CompareOp::kEq, 1).ok());
  EXPECT_FALSE(
      Predicate::CompareDouble(*schema, "pk", CompareOp::kEq, 1).ok());
}

TEST(PredicateTest, DoublePushdownThroughScan) {
  ScratchDir dir("pred_double");
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"score", FieldType::kDouble, 0}});
  ASSERT_TRUE(schema.ok());
  auto db = Decibel::Open(dir.path(), *schema, DecibelOptions{});
  ASSERT_TRUE(db.ok());
  for (int64_t pk = 0; pk < 10; ++pk) {
    Record rec(&*schema);
    rec.SetPk(pk);
    rec.SetDouble(1, 0.5 * static_cast<double>(pk));
    ASSERT_OK((*db)->InsertInto(kMasterBranch, rec));
  }
  auto pred =
      Predicate::CompareDouble(*schema, "score", CompareOp::kGt, 3.0);
  ASSERT_TRUE(pred.ok());
  ASSERT_OK_AND_ASSIGN(
      query::QueryStats stats,
      query::ScanVersion(db->get(), kMasterBranch, *pred, nullptr));
  EXPECT_EQ(stats.rows_scanned, 10u);
  EXPECT_EQ(stats.rows_emitted, 3u);  // scores 3.5, 4.0, 4.5
}

// ------------------------------------------------------------- Query plans

class QueryTest : public ::testing::TestWithParam<EngineType> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("query");
    schema_ = TestSchema(2);
    DecibelOptions options;
    options.engine = GetParam();
    options.page_size = 4096;
    auto db = Decibel::Open(dir_->path(), schema_, options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).MoveValueUnsafe();
    // master: pks 0..49 with c1 = pk; dev adds 100..104, updates evens.
    for (int64_t pk = 0; pk < 50; ++pk) {
      ASSERT_OK(db_->InsertInto(
          kMasterBranch, MakeRecord(schema_, pk, static_cast<int>(pk))));
    }
    Session s = db_->NewSession();
    ASSERT_OK_AND_ASSIGN(dev_, db_->Branch("dev", &s));
    for (int64_t pk = 100; pk < 105; ++pk) {
      ASSERT_OK(db_->InsertInto(dev_, MakeRecord(schema_, pk, 1000)));
    }
    for (int64_t pk = 0; pk < 50; pk += 2) {
      ASSERT_OK(db_->UpdateIn(dev_, MakeRecord(schema_, pk, -1)));
    }
  }

  std::unique_ptr<ScratchDir> dir_;
  Schema schema_ = TestSchema(2);
  std::unique_ptr<Decibel> db_;
  BranchId dev_ = kInvalidBranch;
};

TEST_P(QueryTest, Q1ScanWithPredicate) {
  auto pred = Predicate::Compare(schema_, "c1", CompareOp::kGe, 40);
  ASSERT_TRUE(pred.ok());
  std::set<int64_t> pks;
  ASSERT_OK_AND_ASSIGN(
      query::QueryStats stats,
      query::ScanVersion(db_.get(), kMasterBranch, *pred,
                         [&](const RecordRef& rec) { pks.insert(rec.pk()); }));
  EXPECT_EQ(stats.rows_scanned, 50u);
  EXPECT_EQ(stats.rows_emitted, 10u);  // c1 = 40..49
  EXPECT_EQ(pks.size(), 10u);
  EXPECT_TRUE(pks.count(40));
}

TEST_P(QueryTest, Q2PositiveDiff) {
  std::set<int64_t> pks;
  ASSERT_OK_AND_ASSIGN(
      query::QueryStats stats,
      query::PositiveDiff(db_.get(), dev_, kMasterBranch,
                          [&](const RecordRef& rec) { pks.insert(rec.pk()); }));
  // Keys in dev not in master: the five inserts (updates don't count in
  // by-key semantics).
  EXPECT_EQ(stats.rows_emitted, 5u);
  EXPECT_EQ(pks, (std::set<int64_t>{100, 101, 102, 103, 104}));
}

TEST_P(QueryTest, Q3JoinRespectsPredicateAndPairsVersions) {
  auto pred = Predicate::Compare(schema_, "c1", CompareOp::kLt, 10);
  ASSERT_TRUE(pred.ok());
  int pairs = 0;
  int changed = 0;
  ASSERT_OK_AND_ASSIGN(
      query::QueryStats stats,
      query::JoinVersions(db_.get(), kMasterBranch, dev_, *pred,
                          [&](const RecordRef& left, const RecordRef& right) {
                            EXPECT_EQ(left.pk(), right.pk());
                            ++pairs;
                            if (left.GetInt32(1) != right.GetInt32(1)) {
                              ++changed;
                            }
                          }));
  // Build side: master rows with c1 < 10 (pks 0..9); all exist in dev.
  EXPECT_EQ(stats.rows_emitted, 10u);
  EXPECT_EQ(pairs, 10);
  EXPECT_EQ(changed, 5);  // evens were updated in dev
}

/// Reference Q3 from two plain branch cursors: for each key live in both
/// heads whose a-side version passes the predicate, (a bytes, b bytes).
std::vector<std::pair<std::string, std::string>> ReferenceJoin(
    Decibel* db, BranchId a, BranchId b, const Predicate& predicate) {
  auto rows_of = [db](BranchId branch) {
    std::map<int64_t, std::string> rows;
    auto cursor = db->NewScan(ScanSpec::Branch(branch));
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    ScanRow row;
    while ((*cursor)->Next(&row)) {
      rows[row.record.pk()] = row.record.data().ToString();
    }
    EXPECT_OK((*cursor)->status());
    return rows;
  };
  const std::map<int64_t, std::string> left = rows_of(a);
  const std::map<int64_t, std::string> right = rows_of(b);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& [pk, bytes] : left) {
    auto hit = right.find(pk);
    if (hit == right.end()) continue;
    if (!predicate.Matches(RecordRef(&db->schema(), Slice(bytes)))) continue;
    pairs.emplace_back(bytes, hit->second);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST_P(QueryTest, Q3MatchesReferenceJoinOverDivergedHeads) {
  // On top of the fixture (dev: inserts 100..104, evens set to -1):
  // master-only updates, an update on both sides with different values,
  // a delete on each side, a master-only insert, and a merged branch
  // (merges rewrite versions at new locations on some engines, so equal
  // content may sit at different places in the two heads).
  for (int64_t pk : {1, 3, 11}) {
    ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, pk, 500)));
  }
  ASSERT_OK(db_->UpdateIn(kMasterBranch, MakeRecord(schema_, 5, 55)));
  ASSERT_OK(db_->UpdateIn(dev_, MakeRecord(schema_, 5, 66)));
  ASSERT_OK(db_->DeleteFrom(dev_, 7));
  ASSERT_OK(db_->DeleteFrom(kMasterBranch, 9));
  ASSERT_OK(db_->InsertInto(kMasterBranch, MakeRecord(schema_, 200, 2)));
  Session s = db_->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId feat, db_->Branch("feat", &s));
  ASSERT_OK(db_->UpdateIn(feat, MakeRecord(schema_, 13, 3)));
  ASSERT_OK(db_->UpdateIn(feat, MakeRecord(schema_, 15, 700)));
  ASSERT_OK(db_->InsertInto(feat, MakeRecord(schema_, 300, 4)));
  ASSERT_OK(db_->Merge(dev_, feat, MergePolicy::kThreeWayLeft).status());
  ASSERT_OK(db_->Merge(kMasterBranch, feat, MergePolicy::kThreeWayLeft)
                .status());

  // c1 < 10 rejects master's version of pk 1/3 (500) while dev's (1, 3)
  // would pass it.
  auto lt10 = Predicate::Compare(schema_, "c1", CompareOp::kLt, 10);
  ASSERT_TRUE(lt10.ok());
  const std::vector<BranchId> branches = {kMasterBranch, dev_, feat};
  for (const Predicate& pred : {Predicate(), *lt10}) {
    for (BranchId a : branches) {
      for (BranchId b : branches) {
        SCOPED_TRACE("join " + std::to_string(a) + " " + std::to_string(b) +
                     (pred.empty() ? "" : " where c1 < 10"));
        std::vector<std::pair<std::string, std::string>> got;
        ASSERT_OK_AND_ASSIGN(
            query::QueryStats stats,
            query::JoinVersions(
                db_.get(), a, b, pred,
                [&](const RecordRef& left, const RecordRef& right) {
                  got.emplace_back(left.data().ToString(),
                                   right.data().ToString());
                }));
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, ReferenceJoin(db_.get(), a, b, pred));
        EXPECT_EQ(stats.rows_emitted, got.size());
        // The work counters are the two-branch cursor's own.
        ASSERT_OK_AND_ASSIGN(auto multi,
                             db_->NewScan(ScanSpec::Multi({a, b})));
        uint64_t versions = 0;
        ScanRow row;
        while (multi->Next(&row)) ++versions;
        ASSERT_OK(multi->status());
        EXPECT_EQ(stats.rows_scanned, versions);
      }
    }
  }
  // The fixture really diverged: master and dev disagree on some keys.
  EXPECT_NE(ReferenceJoin(db_.get(), kMasterBranch, dev_, Predicate()),
            ReferenceJoin(db_.get(), kMasterBranch, kMasterBranch,
                          Predicate()));

  const BranchId unknown = static_cast<BranchId>(999);
  EXPECT_TRUE(query::JoinVersions(db_.get(), kMasterBranch, unknown,
                                  Predicate(), nullptr)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(query::JoinVersions(db_.get(), unknown, kMasterBranch,
                                  Predicate(), nullptr)
                  .status()
                  .IsNotFound());
}

TEST_P(QueryTest, Q4HeadsAnnotated) {
  auto pred = Predicate::Compare(schema_, "c1", CompareOp::kEq, 1000);
  ASSERT_TRUE(pred.ok());
  int rows = 0;
  ASSERT_OK_AND_ASSIGN(
      query::QueryStats stats,
      query::ScanHeads(db_.get(), *pred,
                       [&](const RecordRef& rec,
                           const std::vector<uint32_t>& branches) {
                         EXPECT_GE(rec.pk(), 100);
                         EXPECT_EQ(branches.size(), 1u);  // dev only
                         ++rows;
                       }));
  EXPECT_EQ(stats.rows_emitted, 5u);
  EXPECT_EQ(rows, 5);
}

TEST_P(QueryTest, AggregateSingleBranch) {
  auto agg = query::AggregateColumn(db_.get(), kMasterBranch, "c1",
                                    Predicate());
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ(agg->count, 50u);
  EXPECT_EQ(agg->sum, 49 * 50 / 2);  // c1 = 0..49
  EXPECT_EQ(agg->min, 0);
  EXPECT_EQ(agg->max, 49);
  EXPECT_DOUBLE_EQ(agg->avg, 24.5);
  // Unknown / non-numeric columns rejected.
  EXPECT_FALSE(
      query::AggregateColumn(db_.get(), kMasterBranch, "zzz", Predicate())
          .ok());
}

TEST_P(QueryTest, AggregatePerBranchSinglePass) {
  auto aggs = query::AggregatePerBranch(db_.get(), {kMasterBranch, dev_},
                                        "c1", Predicate());
  ASSERT_TRUE(aggs.ok()) << aggs.status().ToString();
  ASSERT_EQ(aggs->size(), 2u);
  // Master: c1 = 0..49.
  EXPECT_EQ((*aggs)[0].count, 50u);
  EXPECT_EQ((*aggs)[0].sum, 1225);
  // Dev: evens set to -1 (25 records), odds keep pk value, plus 5x 1000.
  EXPECT_EQ((*aggs)[1].count, 55u);
  int64_t dev_sum = 5 * 1000 - 25;
  for (int i = 1; i < 50; i += 2) dev_sum += i;
  EXPECT_EQ((*aggs)[1].sum, dev_sum);
  EXPECT_EQ((*aggs)[1].min, -1);
  EXPECT_EQ((*aggs)[1].max, 1000);
}

TEST_P(QueryTest, StringPredicate) {
  // A separate tiny table with a string column.
  ScratchDir dir("query_str");
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"name", FieldType::kString, 8}});
  ASSERT_TRUE(schema.ok());
  DecibelOptions options;
  options.engine = GetParam();
  auto db = Decibel::Open(dir.path(), *schema, options);
  ASSERT_TRUE(db.ok());
  for (int64_t pk = 0; pk < 10; ++pk) {
    Record rec(&*schema);
    rec.SetPk(pk);
    rec.SetString(1, pk % 3 == 0 ? "Sam" : "Alex");
    ASSERT_OK((*db)->InsertInto(kMasterBranch, rec));
  }
  auto pred = Predicate::CompareString(*schema, "name", CompareOp::kEq,
                                       "Sam");
  ASSERT_TRUE(pred.ok());
  ASSERT_OK_AND_ASSIGN(
      query::QueryStats stats,
      query::ScanVersion(db->get(), kMasterBranch, *pred, nullptr));
  EXPECT_EQ(stats.rows_emitted, 4u);  // pks 0,3,6,9
  // Type mismatch rejected.
  EXPECT_FALSE(
      Predicate::CompareString(*schema, "pk", CompareOp::kEq, "x").ok());
}

TEST_P(QueryTest, ScanVersionAtHistoricalCommit) {
  ASSERT_OK_AND_ASSIGN(CommitId commit, db_->CommitBranch(dev_));
  ASSERT_OK(db_->DeleteFrom(dev_, 100));
  ASSERT_OK_AND_ASSIGN(
      query::QueryStats stats,
      query::ScanVersionAt(db_.get(), commit, Predicate(), nullptr));
  EXPECT_EQ(stats.rows_scanned, 55u);  // pre-delete state
}

INSTANTIATE_TEST_SUITE_P(AllEngines, QueryTest,
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

// ------------------------------------------------------------------ VQuel

class VquelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("vquel");
    auto db = Decibel::Open(dir_->path(), TestSchema(2), DecibelOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).MoveValueUnsafe();
  }

  std::string Exec(const std::string& statement) {
    auto result = vquel::Execute(db_.get(), statement);
    EXPECT_TRUE(result.ok()) << statement << ": "
                             << result.status().ToString();
    return result.ok() ? result->output : "";
  }

  std::unique_ptr<ScratchDir> dir_;
  std::unique_ptr<Decibel> db_;
};

TEST_F(VquelTest, InsertScanRoundTrip) {
  Exec("INSERT master 1 10 20");
  Exec("INSERT master 2 30 40");
  const std::string out = Exec("SCAN master");
  EXPECT_NE(out.find("1 | 10 | 20"), std::string::npos);
  EXPECT_NE(out.find("(2 rows)"), std::string::npos);
}

TEST_F(VquelTest, WhereClause) {
  Exec("INSERT master 1 10 20");
  Exec("INSERT master 2 30 40");
  const std::string out = Exec("SCAN master WHERE c1 > 15");
  EXPECT_EQ(out.find("1 | 10"), std::string::npos);
  EXPECT_NE(out.find("2 | 30"), std::string::npos);
}

TEST_F(VquelTest, SelectProjectionWhereAndLimit) {
  Exec("INSERT master 1 10 20");
  Exec("INSERT master 2 30 40");
  Exec("INSERT master 3 50 60");
  // Column list + WHERE push down through the ScanSpec cursor.
  const std::string out = Exec("SELECT c2, pk FROM master WHERE c1 > 15");
  EXPECT_NE(out.find("40 | 2"), std::string::npos);
  EXPECT_NE(out.find("60 | 3"), std::string::npos);
  EXPECT_EQ(out.find("10"), std::string::npos);  // c1 not in the list
  EXPECT_NE(out.find("(2 rows)"), std::string::npos);
  // SELECT * keeps the full row.
  const std::string star = Exec("SELECT * FROM master WHERE pk = 1");
  EXPECT_NE(star.find("1 | 10 | 20"), std::string::npos);
  // LIMIT caps the cursor.
  EXPECT_NE(Exec("SELECT * FROM master LIMIT 2").find("(2 rows)"),
            std::string::npos);
}

TEST_F(VquelTest, SelectFromCommit) {
  Exec("INSERT master 1 10 20");
  const std::string commit = Exec("COMMIT master");
  const CommitId id = std::stoull(commit.substr(commit.rfind(' ') + 1));
  Exec("UPDATE master 1 99 20");
  std::string stmt = "SELECT c1 FROM COMMIT " + std::to_string(id);
  const std::string out = Exec(stmt);
  EXPECT_NE(out.find("10"), std::string::npos);  // pre-update value
  EXPECT_EQ(out.find("99"), std::string::npos);
}

TEST_F(VquelTest, SelectErrors) {
  EXPECT_FALSE(vquel::Execute(db_.get(), "SELECT").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "SELECT * FROM").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "SELECT nope FROM master").ok());
  EXPECT_FALSE(
      vquel::Execute(db_.get(), "SELECT * FROM master WHERE c1").ok());
  EXPECT_FALSE(
      vquel::Execute(db_.get(), "SELECT * FROM master LIMIT x").ok());
  // LIMIT 0 would collide with ScanSpec's "unlimited" sentinel.
  EXPECT_FALSE(
      vquel::Execute(db_.get(), "SELECT * FROM master LIMIT 0").ok());
  EXPECT_FALSE(
      vquel::Execute(db_.get(), "SELECT * FROM master extra junk").ok());
}

TEST_F(VquelTest, BranchDiffMergeFlow) {
  Exec("INSERT master 1 10 20");
  Exec("COMMIT master");
  Exec("BRANCH dev FROM master");
  Exec("INSERT dev 2 50 60");
  const std::string diff = Exec("DIFF dev master");
  EXPECT_NE(diff.find("2 | 50 | 60"), std::string::npos);
  const std::string merge = Exec("MERGE master dev THREEWAY LEFT");
  EXPECT_NE(merge.find("merge commit"), std::string::npos);
  const std::string out = Exec("SCAN master");
  EXPECT_NE(out.find("(2 rows)"), std::string::npos);
}

TEST_F(VquelTest, MergePreviewAndResolutions) {
  Exec("INSERT master 1 10 20");
  Exec("INSERT master 2 11 21");
  Exec("COMMIT master");
  Exec("BRANCH dev FROM master");
  Exec("UPDATE master 1 100 20");
  Exec("UPDATE dev 1 500 20");  // conflicting update
  Exec("INSERT dev 3 50 60");   // clean right-side add

  // PREVIEW streams per-key outcomes and commits nothing.
  const std::string preview = Exec("MERGE master dev PREVIEW");
  EXPECT_NE(preview.find("[conflict"), std::string::npos);
  EXPECT_NE(preview.find("+ 3"), std::string::npos);
  EXPECT_NE(preview.find("1 conflicts)"), std::string::npos);
  EXPECT_NE(Exec("SCAN master").find("(2 rows)"), std::string::npos);

  // THEIRS resolves the conflict to the from-side.
  Exec("MERGE master dev THEIRS");
  const std::string merged = Exec("SCAN master");
  EXPECT_NE(merged.find("1 | 500 | 20"), std::string::npos);
  EXPECT_NE(merged.find("3 | 50 | 60"), std::string::npos);
  EXPECT_NE(merged.find("(3 rows)"), std::string::npos);
}

TEST_F(VquelTest, DiffCommitClassifiesKeys) {
  Exec("INSERT master 1 10 20");
  Exec("INSERT master 2 11 21");
  const std::string base = Exec("COMMIT master");
  Exec("BRANCH dev FROM master");
  Exec("UPDATE dev 1 99 20");
  Exec("DELETE dev 2");
  Exec("INSERT dev 3 50 60");
  const std::string a = Exec("COMMIT master");
  const std::string b = Exec("COMMIT dev");
  const CommitId ca = std::stoull(a.substr(a.rfind(' ') + 1));
  const CommitId cb = std::stoull(b.substr(b.rfind(' ') + 1));
  const std::string out = Exec("DIFF COMMIT " + std::to_string(ca) + " " +
                               std::to_string(cb));
  EXPECT_NE(out.find("~ 1"), std::string::npos);
  EXPECT_NE(out.find("- 2"), std::string::npos);  // live left, gone right
  EXPECT_NE(out.find("+ 3"), std::string::npos);
  EXPECT_NE(out.find("(3 differing keys)"), std::string::npos);
  EXPECT_FALSE(vquel::Execute(db_.get(), "DIFF COMMIT 1").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "DIFF COMMIT x y").ok());
}

TEST_F(VquelTest, HeadsAndMetadata) {
  Exec("INSERT master 1 1 1");
  Exec("BRANCH dev FROM master");
  const std::string heads = Exec("HEADS");
  EXPECT_NE(heads.find("[in 0 1]"), std::string::npos);
  const std::string branches = Exec("BRANCHES");
  EXPECT_NE(branches.find("dev"), std::string::npos);
  Exec("COMMIT dev");
  const std::string log = Exec("LOG dev");
  EXPECT_NE(log.find("commit"), std::string::npos);
}

TEST_F(VquelTest, ErrorsAreStatuses) {
  EXPECT_FALSE(vquel::Execute(db_.get(), "").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "FROBNICATE x").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "SCAN nonexistent").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "SCAN master WHERE").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "INSERT master notanint").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "MERGE master").ok());
}

TEST_F(VquelTest, WhereClauseErrorsNameTheProblem) {
  auto message = [&](const std::string& stmt) {
    auto result = vquel::Execute(db_.get(), stmt);
    return result.ok() ? std::string("ok") : result.status().ToString();
  };
  for (const char* stmt :
       {"SCAN master WHERE c1", "SCAN master WHERE c1 =", "HEADS WHERE"}) {
    EXPECT_NE(message(stmt).find("incomplete WHERE clause"),
              std::string::npos)
        << stmt << " -> " << message(stmt);
  }
  for (const char* stmt : {"SCAN master WHERE c1 = 5 junk",
                           "JOIN master master WHERE c1 = 5 junk"}) {
    EXPECT_NE(message(stmt).find("trailing tokens after '5'"),
              std::string::npos)
        << stmt << " -> " << message(stmt);
  }
  EXPECT_NE(message("SCAN master junk").find("expected WHERE clause"),
            std::string::npos);
  EXPECT_EQ(message("SCAN master WHERE c1 = 5"), "ok");
}

TEST_F(VquelTest, TransactionCommitIsAtomic) {
  vquel::Interpreter interp(db_.get());
  auto exec = [&](const std::string& stmt) {
    auto result = interp.Execute(stmt);
    EXPECT_TRUE(result.ok()) << stmt << ": " << result.status().ToString();
    return result.ok() ? result->output : "";
  };
  exec("BEGIN master");
  EXPECT_TRUE(interp.in_transaction());
  exec("INSERT master 1 10 20");
  exec("INSERT master 2 30 40");
  // Staged ops are invisible to scans until COMMIT TX.
  EXPECT_NE(exec("SCAN master").find("(0 rows)"), std::string::npos);
  EXPECT_NE(exec("COMMIT TX").find("2 ops applied"), std::string::npos);
  EXPECT_FALSE(interp.in_transaction());
  EXPECT_NE(exec("SCAN master").find("(2 rows)"), std::string::npos);
}

TEST_F(VquelTest, TransactionAbortDiscards) {
  vquel::Interpreter interp(db_.get());
  auto exec = [&](const std::string& stmt) {
    auto result = interp.Execute(stmt);
    EXPECT_TRUE(result.ok()) << stmt << ": " << result.status().ToString();
    return result.ok() ? result->output : "";
  };
  exec("INSERT master 1 10 20");
  exec("BEGIN master");
  exec("DELETE master 1");
  exec("INSERT master 2 30 40");
  exec("ABORT");
  EXPECT_FALSE(interp.in_transaction());
  const std::string out = exec("SCAN master");
  EXPECT_NE(out.find("(1 rows)"), std::string::npos);
  EXPECT_NE(out.find("1 | 10 | 20"), std::string::npos);
}

TEST_F(VquelTest, MalformedStatementsReturnInvalidArgument) {
  // Statements with broken grammar must come back as InvalidArgument —
  // never a crash, a hang, or a partial mutation.
  const char* malformed[] = {
      // MERGE: arity, unknown flags, flag soup.
      "MERGE",
      "MERGE master",
      "MERGE master dev SIDEWAYS",
      "MERGE master dev THREEWAY LEFT EXTRA",
      "MERGE master dev PREVIEW OURS",
      // DIFF: arity and bad commit ids.
      "DIFF",
      "DIFF dev",
      "DIFF COMMIT",
      "DIFF COMMIT 1",
      "DIFF COMMIT one two",
      // SELECT: dangling clauses, bad columns, bad literals.
      "SELECT ,, FROM master",
      "SELECT pk FROM master WHERE",
      "SELECT pk FROM master WHERE c1 >",
      "SELECT pk FROM master WHERE c1 >> 5",
      "SELECT pk FROM master WHERE c1 > abc",
      "SELECT pk FROM master LIMIT -3",
      // SCAN / writes: bad arity and bad values.
      "SCAN",
      "SCAN master WHERE c1",
      "SCAN master WHERE c1 = 5 junk",
      "SCAN COMMIT 1 WHERE c1 = 5 junk",
      "JOIN master master WHERE c1 = 5 junk",
      "HEADS WHERE c1 = 5 junk",
      "INSERT",
      "INSERT master",
      "INSERT master 1 2 3 4 5 6",
      "UPDATE master x 1 1",
      "DELETE master",
      "DELETE master notanint",
      // Branch / metadata verbs.
      "BRANCH",
      "BRANCH dev FROM",
      "BRANCH dev OF master",
      "RETIRE",
      "RETIRE master extra",
      "INFO extra",
      "LOG",
      // SUBSCRIBE needs a live server session, never the library path.
      "SUBSCRIBE",
      "SUBSCRIBE master",
      "UNSUBSCRIBE master",
      // Junk.
      "\t  ",
      "; DROP TABLE",
      "MERGE MERGE MERGE MERGE",
  };
  for (const char* statement : malformed) {
    auto result = vquel::Execute(db_.get(), statement);
    ASSERT_FALSE(result.ok()) << statement;
    EXPECT_TRUE(result.status().IsInvalidArgument() ||
                result.status().IsNotFound())
        << statement << " -> " << result.status().ToString();
  }
  // The database is untouched by the whole battery.
  EXPECT_NE(Exec("SCAN master").find("(0 rows)"), std::string::npos);
}

TEST_F(VquelTest, RetireBranchLifecycle) {
  Exec("INSERT master 1 1 1");
  Exec("COMMIT master");
  Exec("BRANCH dev FROM master");
  EXPECT_NE(Exec("BRANCHES").find("dev"), std::string::npos);
  EXPECT_NE(Exec("RETIRE dev").find("retired"), std::string::npos);
  // Inactive branches are flagged in BRANCHES and cannot be retired again.
  EXPECT_NE(Exec("BRANCHES").find("(retired)"), std::string::npos);
  EXPECT_FALSE(vquel::Execute(db_.get(), "RETIRE dev").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "RETIRE master").ok());
  EXPECT_FALSE(vquel::Execute(db_.get(), "RETIRE no_such_branch").ok());
}

TEST_F(VquelTest, InfoReportsEngineAndGraphCounters) {
  Exec("INSERT master 1 1 1");
  Exec("COMMIT master");
  Exec("BRANCH dev FROM master");
  const std::string info = Exec("INFO");
  EXPECT_NE(info.find("branches: 2"), std::string::npos) << info;
  EXPECT_NE(info.find("active_branches: 2"), std::string::npos) << info;
  EXPECT_NE(info.find("durable: true"), std::string::npos) << info;
  EXPECT_NE(info.find("engine.num_records:"), std::string::npos) << info;
  // Under the default kFlush nothing is fdatasynced.
  EXPECT_NE(info.find("wal.syncs: 0\n"), std::string::npos) << info;
  EXPECT_NE(info.find("wal.syncs_in_flight_max: 0\n"), std::string::npos)
      << info;
  // The buffer pool's counters are listed, and rows counts every line.
  for (const char* key : {"pool.hits: ", "pool.misses: ",
                          "pool.resident_bytes: "}) {
    EXPECT_NE(Exec("INFO").find(key), std::string::npos) << key;
  }
  ASSERT_OK_AND_ASSIGN(vquel::ExecResult result,
                       vquel::Execute(db_.get(), "INFO"));
  EXPECT_EQ(result.rows, static_cast<uint64_t>(std::count(
                             result.output.begin(), result.output.end(),
                             '\n') + 1));
}

TEST_F(VquelTest, TransactionGuardsAndErrors) {
  vquel::Interpreter interp(db_.get());
  // No open transaction: COMMIT TX / ABORT are errors.
  EXPECT_FALSE(interp.Execute("COMMIT TX").ok());
  EXPECT_FALSE(interp.Execute("ABORT").ok());
  ASSERT_TRUE(interp.Execute("BRANCH dev FROM master").ok());
  ASSERT_TRUE(interp.Execute("BEGIN master").ok());
  // Nested BEGIN and writes to another branch are rejected.
  EXPECT_FALSE(interp.Execute("BEGIN master").ok());
  EXPECT_FALSE(interp.Execute("INSERT dev 1 1 1").ok());
  ASSERT_TRUE(interp.Execute("ABORT").ok());
  // The one-shot Execute helper still works statement-at-a-time.
  EXPECT_TRUE(vquel::Execute(db_.get(), "INSERT master 5 5 5").ok());
}

TEST_F(VquelTest, FailedCommitTxDropsTheTransaction) {
  vquel::Interpreter interp(db_.get());
  ASSERT_TRUE(interp.Execute("BEGIN master").ok());
  ASSERT_TRUE(interp.Execute("DELETE master 999").ok());  // absent pk
  // The commit fails (NotFound from delete validation) — non-retryable,
  // so the interpreter must not trap the user in a dead transaction.
  EXPECT_FALSE(interp.Execute("COMMIT TX").ok());
  EXPECT_FALSE(interp.in_transaction());
  EXPECT_TRUE(interp.Execute("INSERT master 1 1 1").ok());
  EXPECT_NE(interp.Execute("SCAN master")->output.find("(1 rows)"),
            std::string::npos);
}

}  // namespace
}  // namespace decibel
