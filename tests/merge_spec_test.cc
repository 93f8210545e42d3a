/// MergeSpec / diff-engine tests: cross-engine merge equivalence under
/// every MergePolicy (identical MergeResult and identical merged tables on
/// all three engines — the engines share one staging path and may only
/// diverge on cost), the §2.2.3 conflict-classification edge cases
/// (both-sides-delete, update-vs-delete, both-added-identical), the
/// pluggable resolutions (ours/theirs/latest-wins/callback), the dry-run
/// preview cursor, the three-way commit diff cursor, and the WAL-ordering
/// failure injection: a merge aborted by its callback must leave no graph
/// commit, no kMerge WAL record, and a recoverable database.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/io.h"
#include "core/decibel.h"
#include "test_util.h"
#include "wal/wal_format.h"
#include "wal/wal_reader.h"
#include "wal/wal_writer.h"

namespace decibel {
namespace {

using testing_util::CollectBranch;
using testing_util::CollectBranchAll;
using testing_util::MakeRecord;
using testing_util::MakeRecordVals;
using testing_util::ScratchDir;
using testing_util::TestSchema;

std::unique_ptr<Decibel> MakeDb(const ScratchDir& dir, EngineType engine) {
  DecibelOptions options;
  options.engine = engine;
  options.page_size = 4096;
  auto db = Decibel::Open(dir.path(), TestSchema(3), options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).MoveValueUnsafe();
}

/// Seeds the canonical conflicted history used across these tests.
/// master/dev fork after pks 0..9 (value 100+pk in every column), then:
///
///   pk1: master-only update          -> left change, no conflict
///   pk2: dev-only update             -> right change, no conflict
///   pk3: both update, different      -> conflict (same column)
///   pk4: both delete                 -> agreement, not a conflict
///   pk5: master delete vs dev update -> conflict
///   pk6: master update vs dev delete -> conflict
///   pk8: master edits col1, dev col2 -> 3-way field merge, no conflict
///   pk20: both insert identical      -> agreement, not a conflict
///   pk21: both insert different      -> conflict
///   pk30: dev-only insert            -> right change, no conflict
///
/// Returns the fork commit (the merges' lca).
CommitId SeedHistory(Decibel* db, BranchId* dev_out) {
  const Schema& s = db->schema();
  for (int i = 0; i < 10; ++i) {
    EXPECT_OK(db->InsertInto(kMasterBranch, MakeRecord(s, i, 100 + i)));
  }
  auto base = db->CommitBranch(kMasterBranch);
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  auto dev = db->BranchAt("dev", *base);
  EXPECT_TRUE(dev.ok()) << dev.status().ToString();
  *dev_out = *dev;

  EXPECT_OK(db->UpdateIn(kMasterBranch, MakeRecord(s, 1, 201)));
  EXPECT_OK(db->UpdateIn(*dev, MakeRecord(s, 2, 302)));
  EXPECT_OK(db->UpdateIn(kMasterBranch, MakeRecord(s, 3, 203)));
  EXPECT_OK(db->UpdateIn(*dev, MakeRecord(s, 3, 303)));
  EXPECT_OK(db->DeleteFrom(kMasterBranch, 4));
  EXPECT_OK(db->DeleteFrom(*dev, 4));
  EXPECT_OK(db->DeleteFrom(kMasterBranch, 5));
  EXPECT_OK(db->UpdateIn(*dev, MakeRecord(s, 5, 305)));
  EXPECT_OK(db->UpdateIn(kMasterBranch, MakeRecord(s, 6, 206)));
  EXPECT_OK(db->DeleteFrom(*dev, 6));
  EXPECT_OK(db->UpdateIn(kMasterBranch, MakeRecordVals(s, 8, {208, 108, 108})));
  EXPECT_OK(db->UpdateIn(*dev, MakeRecordVals(s, 8, {108, 308, 108})));
  EXPECT_OK(db->InsertInto(kMasterBranch, MakeRecord(s, 20, 420)));
  EXPECT_OK(db->InsertInto(*dev, MakeRecord(s, 20, 420)));
  EXPECT_OK(db->InsertInto(kMasterBranch, MakeRecord(s, 21, 221)));
  EXPECT_OK(db->InsertInto(*dev, MakeRecord(s, 21, 321)));
  EXPECT_OK(db->InsertInto(*dev, MakeRecord(s, 30, 330)));
  return *base;
}

const EngineType kEngines[] = {EngineType::kTupleFirst,
                               EngineType::kVersionFirst,
                               EngineType::kHybrid};
const MergePolicy kPolicies[] = {
    MergePolicy::kTwoWayLeft, MergePolicy::kTwoWayRight,
    MergePolicy::kThreeWayLeft, MergePolicy::kThreeWayRight};

// ---------------------------------------------- cross-engine equivalence

TEST(MergeEquivalenceTest, AllEnginesAgreeUnderEveryPolicy) {
  for (MergePolicy policy : kPolicies) {
    std::map<int64_t, std::vector<int32_t>> first_into, first_from;
    MergeResult first_result;
    bool have_first = false;
    for (EngineType engine : kEngines) {
      SCOPED_TRACE(std::string("engine=") + EngineTypeName(engine) +
                   " policy=" + std::to_string(static_cast<int>(policy)));
      ScratchDir dir("merge_equiv");
      auto db = MakeDb(dir, engine);
      BranchId dev = kInvalidBranch;
      SeedHistory(db.get(), &dev);
      auto merged = db->Merge(kMasterBranch, dev, policy);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      auto into_rows = CollectBranchAll(db.get(), kMasterBranch);
      auto from_rows = CollectBranchAll(db.get(), dev);
      if (!have_first) {
        have_first = true;
        first_into = into_rows;
        first_from = from_rows;
        first_result = merged->result;
        continue;
      }
      // The answer — tables and every engine-independent counter — must be
      // identical; only bytes_processed (the physical cost) may differ.
      EXPECT_EQ(into_rows, first_into);
      EXPECT_EQ(from_rows, first_from);
      EXPECT_EQ(merged->result.conflicts, first_result.conflicts);
      EXPECT_EQ(merged->result.merged_records, first_result.merged_records);
      EXPECT_EQ(merged->result.field_merges, first_result.field_merges);
      EXPECT_EQ(merged->result.diff_bytes, first_result.diff_bytes);
    }
  }
}

// ------------------------------------------------- conflict edge cases

class MergeSpecTest : public ::testing::TestWithParam<EngineType> {};

TEST_P(MergeSpecTest, PreviewClassifiesEdgeCases) {
  ScratchDir dir("merge_edges");
  auto db = MakeDb(dir, GetParam());
  BranchId dev = kInvalidBranch;
  SeedHistory(db.get(), &dev);
  const auto before = CollectBranchAll(db.get(), kMasterBranch);

  auto cursor = db->PreviewMerge(MergeSpec::Branches(kMasterBranch, dev)
                                     .WithPolicy(MergePolicy::kThreeWayLeft));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::map<int64_t, MergeRow> rows;
  int64_t last_pk = INT64_MIN;
  const MergeRow* row;
  while ((row = (*cursor)->Next()) != nullptr) {
    EXPECT_GT(row->pk, last_pk) << "rows must stream in ascending pk order";
    last_pk = row->pk;
    rows[row->pk] = *row;
  }
  ASSERT_OK((*cursor)->status());

  // Left-only change: nothing to do, not emitted (or emitted as kNone).
  EXPECT_TRUE(rows.count(1) == 0 ||
              rows[1].change == MergeChangeKind::kNone);
  // Right-only update is adopted.
  ASSERT_EQ(rows.count(2), 1u);
  EXPECT_EQ(rows[2].change, MergeChangeKind::kUpdate);
  EXPECT_FALSE(rows[2].conflict);
  // Both updated the same column differently: conflict, left wins, so the
  // into branch keeps its record (kNone).
  ASSERT_EQ(rows.count(3), 1u);
  EXPECT_TRUE(rows[3].conflict);
  EXPECT_EQ(rows[3].change, MergeChangeKind::kNone);
  // Both deleted: agreement, no conflict, nothing to change.
  EXPECT_TRUE(rows.count(4) == 0 ||
              (!rows[4].conflict && rows[4].change == MergeChangeKind::kNone));
  // Delete-vs-update and update-vs-delete: conflicts.
  ASSERT_EQ(rows.count(5), 1u);
  EXPECT_TRUE(rows[5].conflict);
  ASSERT_EQ(rows.count(6), 1u);
  EXPECT_TRUE(rows[6].conflict);
  // Disjoint-field edits merge without conflict, taking both sides.
  ASSERT_EQ(rows.count(8), 1u);
  EXPECT_FALSE(rows[8].conflict);
  EXPECT_TRUE(rows[8].field_merge);
  EXPECT_EQ(rows[8].change, MergeChangeKind::kUpdate);
  ASSERT_TRUE(rows[8].resolved.has_value());
  EXPECT_EQ(rows[8].resolved->ref().GetInt32(1), 208);
  EXPECT_EQ(rows[8].resolved->ref().GetInt32(2), 308);
  // Both inserted identical bytes: agreement.
  EXPECT_TRUE(rows.count(20) == 0 ||
              (!rows[20].conflict &&
               rows[20].change == MergeChangeKind::kNone));
  // Both inserted different bytes: conflict.
  ASSERT_EQ(rows.count(21), 1u);
  EXPECT_TRUE(rows[21].conflict);
  // Right-only insert is adopted.
  ASSERT_EQ(rows.count(30), 1u);
  EXPECT_EQ(rows[30].change, MergeChangeKind::kAdd);
  EXPECT_FALSE(rows[30].conflict);
  ASSERT_TRUE(rows[30].resolved.has_value());
  EXPECT_EQ(rows[30].resolved->ref().GetInt32(1), 330);

  // A preview mutates nothing.
  EXPECT_EQ(CollectBranchAll(db.get(), kMasterBranch), before);

  // Executing the same spec produces exactly the previewed counters and
  // exactly the previewed per-key outcomes.
  auto merged = db->Merge(MergeSpec::Branches(kMasterBranch, dev)
                              .WithPolicy(MergePolicy::kThreeWayLeft));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->result.conflicts, (*cursor)->stats().conflicts);
  EXPECT_EQ(merged->result.merged_records, (*cursor)->stats().merged_records);
  EXPECT_EQ(merged->result.field_merges, (*cursor)->stats().field_merges);
  EXPECT_EQ(merged->result.diff_bytes, (*cursor)->stats().diff_bytes);
  auto after = CollectBranchAll(db.get(), kMasterBranch);
  for (const auto& [pk, prow] : rows) {
    if (prow.resolved.has_value()) {
      ASSERT_EQ(after.count(pk), 1u) << "pk " << pk;
      EXPECT_EQ(after[pk][0], prow.resolved->ref().GetInt32(1)) << "pk " << pk;
    } else if (prow.change == MergeChangeKind::kDelete) {
      EXPECT_EQ(after.count(pk), 0u) << "pk " << pk;
    }
  }
}

// ----------------------------------------------------------- resolutions

TEST_P(MergeSpecTest, OursAndTheirsResolveEveryConflictToOneSide) {
  for (bool ours : {true, false}) {
    ScratchDir dir("merge_ours");
    auto db = MakeDb(dir, GetParam());
    BranchId dev = kInvalidBranch;
    SeedHistory(db.get(), &dev);
    auto merged = db->Merge(
        MergeSpec::Branches(kMasterBranch, dev)
            .WithPolicy(MergePolicy::kThreeWayLeft)
            .Resolve(ours ? MergeResolution::kOurs : MergeResolution::kTheirs));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    auto rows = CollectBranch(db.get(), kMasterBranch);
    if (ours) {
      EXPECT_EQ(rows[3], 203);       // our update
      EXPECT_EQ(rows.count(5), 0u);  // our delete
      EXPECT_EQ(rows[6], 206);       // our update over their delete
      EXPECT_EQ(rows[21], 221);      // our insert
    } else {
      EXPECT_EQ(rows[3], 303);       // their update
      EXPECT_EQ(rows[5], 305);       // their update over our delete
      EXPECT_EQ(rows.count(6), 0u);  // their delete
      EXPECT_EQ(rows[21], 321);      // their insert
    }
    // Non-conflicting reconciliation is resolution-independent.
    EXPECT_EQ(rows[1], 201);
    EXPECT_EQ(rows[2], 302);
    EXPECT_EQ(rows.count(4), 0u);
    EXPECT_EQ(rows[30], 330);
  }
}

TEST_P(MergeSpecTest, LatestWinsFollowsTheNewerHead) {
  ScratchDir dir("merge_latest");
  auto db = MakeDb(dir, GetParam());
  BranchId dev = kInvalidBranch;
  SeedHistory(db.get(), &dev);
  // Commit master first, dev second: dev's head commit is newer, so
  // latest-wins behaves like theirs.
  ASSERT_OK(db->CommitBranch(kMasterBranch).status());
  ASSERT_OK(db->CommitBranch(dev).status());
  auto merged = db->Merge(MergeSpec::Branches(kMasterBranch, dev)
                              .WithPolicy(MergePolicy::kThreeWayLeft)
                              .Resolve(MergeResolution::kLatestWins));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto rows = CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(rows[3], 303);
  EXPECT_EQ(rows[5], 305);
  EXPECT_EQ(rows.count(6), 0u);
  EXPECT_EQ(rows[21], 321);
}

TEST_P(MergeSpecTest, CallbackDecidesEachConflict) {
  ScratchDir dir("merge_cb");
  auto db = MakeDb(dir, GetParam());
  BranchId dev = kInvalidBranch;
  SeedHistory(db.get(), &dev);
  const Schema& s = db->schema();
  std::vector<int64_t> seen;
  auto merged = db->Merge(MergeSpec::Branches(kMasterBranch, dev)
                              .WithPolicy(MergePolicy::kThreeWayLeft)
                              .OnConflict([&](const MergeConflict& c)
                                              -> Result<ConflictResolution> {
                                seen.push_back(c.pk);
                                switch (c.pk) {
                                  case 3:
                                    return ConflictResolution::Drop();
                                  case 5:
                                    return ConflictResolution::TakeRight();
                                  case 6:
                                    return ConflictResolution::TakeLeft();
                                  default:
                                    return ConflictResolution::Custom(
                                        MakeRecord(s, c.pk, 777));
                                }
                              }));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 5, 6, 21}));
  auto rows = CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(rows.count(3), 0u);  // dropped
  EXPECT_EQ(rows[5], 305);       // their side
  EXPECT_EQ(rows[6], 206);       // our side
  EXPECT_EQ(rows[21], 777);      // synthesized record
  EXPECT_EQ(merged->result.conflicts, 4u);
}

// ------------------------------------------------------------ diff cursor

TEST_P(MergeSpecTest, DiffCommitsClassifiesAgainstTheAncestor) {
  ScratchDir dir("merge_diffc");
  auto db = MakeDb(dir, GetParam());
  BranchId dev = kInvalidBranch;
  SeedHistory(db.get(), &dev);
  ASSERT_OK_AND_ASSIGN(CommitId head_m, db->CommitBranch(kMasterBranch));
  ASSERT_OK_AND_ASSIGN(CommitId head_d, db->CommitBranch(dev));

  auto cursor = db->DiffCommits(head_m, head_d);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::map<int64_t, MergeRow> rows;
  const MergeRow* row;
  while ((row = (*cursor)->Next()) != nullptr) rows[row->pk] = *row;
  ASSERT_OK((*cursor)->status());

  // From master's point of view: pk1 modified (only on master — still a
  // difference between the two commits), pk5 added on dev / deleted on
  // master, pk6 the reverse, pk30 only on dev.
  ASSERT_EQ(rows.count(1), 1u);
  EXPECT_EQ(rows[1].change, MergeChangeKind::kUpdate);
  EXPECT_FALSE(rows[1].conflict);
  ASSERT_EQ(rows.count(3), 1u);
  EXPECT_EQ(rows[3].change, MergeChangeKind::kUpdate);
  EXPECT_TRUE(rows[3].conflict);  // both commits changed it since the lca
  ASSERT_EQ(rows.count(5), 1u);
  EXPECT_EQ(rows[5].change, MergeChangeKind::kAdd);  // absent left, live right
  ASSERT_EQ(rows.count(6), 1u);
  EXPECT_EQ(rows[6].change, MergeChangeKind::kDelete);
  ASSERT_EQ(rows.count(30), 1u);
  EXPECT_EQ(rows[30].change, MergeChangeKind::kAdd);
  // Agreements are invisible to a diff: same bytes on both sides.
  EXPECT_EQ(rows.count(4), 0u);
  EXPECT_EQ(rows.count(20), 0u);
  // Diffs stage nothing and resolve nothing.
  EXPECT_FALSE(rows[3].resolved.has_value());
  // Left/right states ride along for consumers.
  ASSERT_TRUE(rows[3].left.has_value());
  EXPECT_EQ(rows[3].left->ref().GetInt32(1), 203);
  ASSERT_TRUE(rows[3].right.has_value());
  EXPECT_EQ(rows[3].right->ref().GetInt32(1), 303);

  // A diff of a commit against itself is empty.
  auto self = db->DiffCommits(head_m, head_m);
  ASSERT_TRUE(self.ok()) << self.status().ToString();
  EXPECT_EQ((*self)->Next(), nullptr);
  ASSERT_OK((*self)->status());
}

// ---------------------------------------------- WAL ordering (the bugfix)

TEST_P(MergeSpecTest, FailedMergeLeavesNoCommitNoWalRecordAndRecovers) {
  ScratchDir dir("merge_fail");
  DecibelOptions options;
  options.engine = GetParam();
  options.sync_mode = wal::SyncMode::kFlush;
  options.page_size = 4096;

  BranchId dev = kInvalidBranch;
  std::map<int64_t, int32_t> before;
  CommitId head_before = kInvalidCommit;
  {
    ASSERT_OK_AND_ASSIGN(auto db,
                         Decibel::Open(dir.path(), TestSchema(3), options));
    SeedHistory(db.get(), &dev);
    before = CollectBranch(db.get(), kMasterBranch);

    // The callback fails partway through staging: the merge must abort
    // with no graph commit, no WAL record, and no data mutation. (Before
    // the reorder, the facade allocated the merge commit and logged the
    // kMerge record *before* running the merge — this exact injection
    // left a phantom commit and a lying WAL.)
    auto merged =
        db->Merge(MergeSpec::Branches(kMasterBranch, dev)
                      .OnConflict([&](const MergeConflict& c)
                                      -> Result<ConflictResolution> {
                        if (c.pk >= 5) {
                          return Status::InvalidArgument("operator bailed");
                        }
                        return ConflictResolution::TakeLeft();
                      }));
    ASSERT_FALSE(merged.ok());
    EXPECT_TRUE(merged.status().IsInvalidArgument());

    head_before = db->graph().Head(kMasterBranch);
    ASSERT_OK_AND_ASSIGN(CommitInfo head, db->graph().GetCommit(head_before));
    EXPECT_EQ(head.parents.size(), 1u) << "no merge commit may exist";
    EXPECT_EQ(CollectBranch(db.get(), kMasterBranch), before);

    // No kMerge record anywhere in the log.
    ASSERT_OK_AND_ASSIGN(auto names, ListDir(JoinPath(dir.path(), "wal")));
    for (const auto& name : names) {
      if (name.size() < 4 || name.compare(name.size() - 4, 4, ".wal") != 0) {
        continue;
      }
      ASSERT_OK_AND_ASSIGN(
          auto reader, wal::Reader::Open(JoinPath(JoinPath(dir.path(), "wal"),
                                                  name)));
      wal::FrameView frame;
      while (reader->Next(&frame)) {
        EXPECT_NE(frame.type, wal::RecordType::kMerge)
            << "aborted merge leaked a WAL record";
      }
    }

    // The database stays fully usable: a retry with a deciding callback
    // succeeds.
    auto retried = db->Merge(MergeSpec::Branches(kMasterBranch, dev)
                                 .OnConflict([](const MergeConflict&) {
                                   return ConflictResolution::TakeLeft();
                                 }));
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  }

  // And it recovers: reopen replays the WAL (which now holds only the
  // successful retry) without tripping over the aborted attempt.
  ASSERT_OK_AND_ASSIGN(auto db, Decibel::Open(dir.path(), options));
  ASSERT_OK_AND_ASSIGN(CommitInfo head,
                       db->graph().GetCommit(db->graph().Head(kMasterBranch)));
  EXPECT_EQ(head.parents.size(), 2u) << "the retry's merge commit survives";
  auto rows = CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(rows[2], 302);   // adopted from dev by the retry
  EXPECT_EQ(rows[30], 330);  // dev's insert adopted
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MergeSpecTest,
                         ::testing::ValuesIn(kEngines),
                         [](const auto& info) {
                           const std::string name = EngineTypeName(info.param);
                           return name == "tuple-first"    ? "TupleFirst"
                                  : name == "version-first" ? "VersionFirst"
                                                            : "Hybrid";
                         });

}  // namespace
}  // namespace decibel
