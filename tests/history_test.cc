/// Property tests for time travel: random operation streams where new
/// branches fork from *random historical commits* (not just heads), so the
/// commit-restore paths (bitmap checkout + pk-index rebuild in TF/HY,
/// (segment, offset) roots in VF) get exercised under load, including
/// after reopen.

#include <gtest/gtest.h>

#include <map>

#include "bitmap/commit_history.h"
#include "common/random.h"
#include "core/decibel.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::MakeRecord;
using testing_util::ScratchDir;
using testing_util::TestSchema;

std::string EngineParamName(EngineType engine) {
  switch (engine) {
    case EngineType::kTupleFirst:
      return "TupleFirst";
    case EngineType::kVersionFirst:
      return "VersionFirst";
    default:
      return "Hybrid";
  }
}

class HistoryTest
    : public ::testing::TestWithParam<std::tuple<EngineType, uint64_t>> {};

TEST_P(HistoryTest, BranchesFromRandomCommitsMatchSnapshots) {
  const auto [engine, seed] = GetParam();
  ScratchDir dir("history");
  const Schema schema = TestSchema(2);
  DecibelOptions options;
  options.engine = engine;
  options.page_size = 4096;
  auto db = Decibel::Open(dir.path(), schema, options).MoveValueUnsafe();

  Random rng(seed);
  std::map<BranchId, std::map<int64_t, int32_t>> oracle;
  std::map<CommitId, std::map<int64_t, int32_t>> snapshots;
  std::vector<BranchId> branches{kMasterBranch};
  std::vector<CommitId> commits;
  oracle[kMasterBranch] = {};
  int64_t next_pk = 0;
  int32_t next_val = 0;
  int branch_counter = 0;

  for (int round = 0; round < 60; ++round) {
    // Mutate a random branch.
    const BranchId b = branches[rng.Uniform(branches.size())];
    auto& table = oracle[b];
    for (int op = 0; op < 15; ++op) {
      const uint64_t kind = rng.Uniform(10);
      if (kind < 6 || table.empty()) {
        const int32_t v = ++next_val;
        ASSERT_OK(db->InsertInto(b, MakeRecord(schema, next_pk, v)));
        table[next_pk++] = v;
      } else if (kind < 9) {
        auto it = table.begin();
        std::advance(it, rng.Uniform(table.size()));
        it->second = ++next_val;
        ASSERT_OK(db->UpdateIn(b, MakeRecord(schema, it->first, it->second)));
      } else {
        auto it = table.begin();
        std::advance(it, rng.Uniform(table.size()));
        ASSERT_OK(db->DeleteFrom(b, it->first));
        table.erase(it);
      }
    }
    // Commit and remember the snapshot.
    auto commit = db->CommitBranch(b);
    ASSERT_TRUE(commit.ok()) << commit.status().ToString();
    snapshots[*commit] = table;
    commits.push_back(*commit);

    // Sometimes revive a random historical commit as a new branch.
    if (rng.OneIn(3) && branches.size() < 10) {
      const CommitId base = commits[rng.Uniform(commits.size())];
      auto child =
          db->BranchAt("hist_" + std::to_string(branch_counter++), base);
      ASSERT_TRUE(child.ok()) << child.status().ToString();
      branches.push_back(*child);
      oracle[*child] = snapshots[base];
      // The revived branch must equal the snapshot immediately.
      auto rows = testing_util::CollectBranch(db.get(), *child);
      ASSERT_EQ(rows, snapshots[base])
          << "revival of commit " << base << " diverged";
    }
  }

  // Every branch matches its oracle; every commit still replays.
  for (BranchId b : branches) {
    EXPECT_EQ(testing_util::CollectBranch(db.get(), b), oracle[b])
        << "branch " << b;
  }
  for (const CommitId c : commits) {
    auto it = db->NewScan(ScanSpec::Commit(c));
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    EXPECT_EQ(testing_util::Collect(it->get()), snapshots[c])
        << "commit " << c;
  }

  // Checkout sessions see snapshots too.
  Session s = db->NewSession();
  const CommitId probe = commits[commits.size() / 2];
  ASSERT_OK(db->Checkout(&s, probe));
  EXPECT_EQ(testing_util::Collect(db->NewScan(s).MoveValueUnsafe().get()),
            snapshots[probe]);

  // And everything survives a flush + reopen.
  ASSERT_OK(db->Flush());
  db.reset();
  db = Decibel::Open(dir.path(), schema, options).MoveValueUnsafe();
  for (BranchId b : branches) {
    EXPECT_EQ(testing_util::CollectBranch(db.get(), b), oracle[b])
        << "branch " << b << " after reopen";
  }
  const CommitId last = commits.back();
  auto it = db->NewScan(ScanSpec::Commit(last));
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(testing_util::Collect(it->get()), snapshots[last]);
}

/// The composite interval is a format constant, so a history holds a
/// composite only past CommitHistory::kCompositeEvery commits. One branch
/// committed 2k + 8 times gives each tuple-first and hybrid history two;
/// k more after a reopen add a third, built from the writer state the
/// first append rebuilds. Every commit must keep its own rows throughout
/// (version-first resolves commits without bitmaps and must agree).
class CompositeHistoryTest : public ::testing::TestWithParam<EngineType> {};

TEST_P(CompositeHistoryTest, LongBranchReplaysEveryCommitAcrossReopen) {
  constexpr uint32_t k = CommitHistory::kCompositeEvery;
  ScratchDir dir("history_composite");
  const Schema schema = TestSchema(2);
  DecibelOptions options;
  options.engine = GetParam();
  options.page_size = 4096;
  auto db = Decibel::Open(dir.path(), schema, options).MoveValueUnsafe();

  Random rng(5);
  std::map<int64_t, int32_t> table;
  std::vector<std::pair<CommitId, std::map<int64_t, int32_t>>> snapshots;
  int64_t next_pk = 0;
  int32_t next_val = 0;
  auto commit_rounds = [&](size_t until) {
    while (snapshots.size() < until) {
      for (int op = 0; op < 6; ++op) {
        const uint64_t kind = rng.Uniform(6);
        if (kind < 3 || table.empty()) {
          ASSERT_OK(db->InsertInto(kMasterBranch,
                                   MakeRecord(schema, next_pk, ++next_val)));
          table[next_pk++] = next_val;
        } else {
          auto it = table.begin();
          std::advance(it, rng.Uniform(table.size()));
          if (kind < 5) {
            it->second = ++next_val;
            ASSERT_OK(db->UpdateIn(kMasterBranch,
                                   MakeRecord(schema, it->first, next_val)));
          } else {
            ASSERT_OK(db->DeleteFrom(kMasterBranch, it->first));
            table.erase(it);
          }
        }
      }
      ASSERT_OK_AND_ASSIGN(CommitId c, db->CommitBranch(kMasterBranch));
      snapshots.emplace_back(c, table);
    }
  };
  auto expect_every_commit = [&](const char* when) {
    for (const auto& [c, rows] : snapshots) {
      ASSERT_OK_AND_ASSIGN(auto it, db->NewScan(ScanSpec::Commit(c)));
      EXPECT_EQ(testing_util::Collect(it.get()), rows)
          << when << ": commit " << c;
    }
  };

  commit_rounds(2 * k + 8);
  expect_every_commit("before reopen");
  ASSERT_OK(db->Flush());
  db.reset();
  db = Decibel::Open(dir.path(), schema, options).MoveValueUnsafe();
  expect_every_commit("after reopen");
  commit_rounds(3 * k + 8);
  expect_every_commit("after a third composite");
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, CompositeHistoryTest,
    ::testing::Values(EngineType::kTupleFirst, EngineType::kVersionFirst,
                      EngineType::kHybrid),
    [](const auto& info) { return EngineParamName(info.param); });

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSeeds, HistoryTest,
    ::testing::Combine(::testing::Values(EngineType::kTupleFirst,
                                         EngineType::kVersionFirst,
                                         EngineType::kHybrid),
                       ::testing::Values(3u, 11u, 77u)),
    [](const auto& info) {
      return EngineParamName(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace decibel
