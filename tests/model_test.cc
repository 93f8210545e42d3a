/// Property-based testing: a randomized stream of versioning operations is
/// applied simultaneously to a Decibel engine and to a naive in-memory
/// oracle (one std::map per branch, snapshots per commit). The stream
/// writes, commits, forks at a head or at a remembered commit, merges,
/// retires branches (which stay readable and forkable) and, every few
/// rounds, closes and reopens the database. After every burst the
/// engine's Gets of present and absent keys on every branch, and its
/// scans, must agree with the oracle; at the end so must every commit
/// scan and diff. Parameterized over engine type x seed.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>

#include "common/random.h"
#include "core/decibel.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::MakeRecord;
using testing_util::ScratchDir;
using testing_util::TestSchema;

struct Oracle {
  using Table = std::map<int64_t, int32_t>;  // pk -> c1 (c2/c3 mirror c1)
  std::map<BranchId, Table> branches;
  std::map<CommitId, Table> commits;
};

class ModelTest
    : public ::testing::TestWithParam<std::tuple<EngineType, uint64_t>> {};

TEST_P(ModelTest, RandomOperationStreamMatchesOracle) {
  const EngineType engine_type = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  ScratchDir dir("model");
  const Schema schema = TestSchema(3);
  DecibelOptions options;
  options.engine = engine_type;
  options.page_size = 4096;
  std::unique_ptr<Decibel> db;
  auto reopen = [&] {
    db.reset();
    auto db_result = Decibel::Open(dir.path(), schema, options);
    ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
    db = std::move(db_result).MoveValueUnsafe();
  };
  reopen();

  Random rng(seed);
  Oracle oracle;
  oracle.branches[kMasterBranch] = {};
  oracle.commits[db->graph().Head(kMasterBranch)] = {};
  std::vector<BranchId> branches{kMasterBranch};
  std::vector<BranchId> live{kMasterBranch};  // not retired: writable
  int64_t next_pk = 0;
  int32_t next_val = 1000;

  auto check_branch = [&](BranchId b) {
    auto it = db->NewScan(ScanSpec::Branch(b));
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    auto rows = testing_util::Collect(it.value().get());
    EXPECT_EQ(rows, oracle.branches[b]) << "branch " << b << " diverged";
  };
  // Point reads of \p b: a few live keys, then keys drawn from every key
  // ever written (mostly absent from any one branch) and one never used.
  auto check_gets = [&](BranchId b) {
    const Oracle::Table& table = oracle.branches[b];
    auto expect = [&](int64_t pk) {
      auto got = db->Get(b, pk);
      auto it = table.find(pk);
      if (it == table.end()) {
        EXPECT_TRUE(got.status().IsNotFound())
            << "branch " << b << " pk " << pk << ": "
            << (got.ok() ? "found a deleted or foreign key"
                         : got.status().ToString());
        return;
      }
      ASSERT_TRUE(got.ok()) << "branch " << b << " pk " << pk << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->ref().GetInt32(1), it->second)
          << "branch " << b << " pk " << pk;
    };
    for (int i = 0; i < 3 && !table.empty(); ++i) {
      auto it = table.begin();
      std::advance(it, rng.Uniform(table.size()));
      expect(it->first);
    }
    for (int i = 0; i < 3; ++i) {
      expect(static_cast<int64_t>(rng.Uniform(next_pk + 1)));
    }
    expect(-1);
  };
  // Records a just-created branch \p child whose rows start as \p table.
  auto add_branch = [&](BranchId child, const Oracle::Table& table) {
    branches.push_back(child);
    live.push_back(child);
    oracle.branches[child] = table;
  };

  for (int round = 0; round < 80; ++round) {
    // A burst of data operations on random branches.
    const int burst = 10 + static_cast<int>(rng.Uniform(30));
    for (int op = 0; op < burst; ++op) {
      const BranchId b = live[rng.Uniform(live.size())];
      Oracle::Table& table = oracle.branches[b];
      const uint64_t kind = rng.Uniform(10);
      if (kind < 6 || table.empty()) {
        const int64_t pk = next_pk++;
        const int32_t val = next_val++;
        ASSERT_OK(db->InsertInto(b, MakeRecord(schema, pk, val)));
        table[pk] = val;
      } else if (kind < 9) {
        // Update a random existing key.
        auto it = table.begin();
        std::advance(it, rng.Uniform(table.size()));
        const int32_t val = next_val++;
        ASSERT_OK(db->UpdateIn(b, MakeRecord(schema, it->first, val)));
        it->second = val;
      } else {
        auto it = table.begin();
        std::advance(it, rng.Uniform(table.size()));
        ASSERT_OK(db->DeleteFrom(b, it->first));
        table.erase(it);
      }
    }

    // Occasionally commit, branch, merge or retire.
    const uint64_t action = rng.Uniform(12);
    if (action < 4) {
      const BranchId b = live[rng.Uniform(live.size())];
      auto commit = db->CommitBranch(b);
      ASSERT_TRUE(commit.ok()) << commit.status().ToString();
      oracle.commits[*commit] = oracle.branches[b];
    } else if (action < 7 && branches.size() < 64) {
      // One to three at-head forks, piling up as agent traffic does.
      const int forks = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < forks && branches.size() < 64; ++f) {
        const BranchId parent = branches[rng.Uniform(branches.size())];
        Session s = db->NewSession();
        ASSERT_OK(db->Use(&s, parent));
        auto child = db->Branch(
            "b" + std::to_string(round) + "_" + std::to_string(f), &s);
        ASSERT_TRUE(child.ok()) << child.status().ToString();
        add_branch(*child, oracle.branches[parent]);
        // The implicit commit created by branching snapshots the parent.
        oracle.commits[db->graph().Head(parent)] = oracle.branches[parent];
      }
    } else if (action < 8 && branches.size() < 64) {
      // A fork of a remembered commit: at the head of a clean branch the
      // engine takes its at-head path, otherwise it restores the commit.
      auto it = oracle.commits.begin();
      std::advance(it, rng.Uniform(oracle.commits.size()));
      auto child = db->BranchAt("at" + std::to_string(round), it->first);
      ASSERT_TRUE(child.ok()) << child.status().ToString();
      add_branch(*child, it->second);
    } else if (action < 9 && live.size() >= 2) {
      // Retire a branch other than master; it must still read. It is
      // committed first: retirement abandons uncommitted writes.
      const size_t pos = 1 + rng.Uniform(live.size() - 1);
      const BranchId b = live[pos];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pos));
      auto commit = db->CommitBranch(b);
      ASSERT_TRUE(commit.ok()) << commit.status().ToString();
      oracle.commits[*commit] = oracle.branches[b];
      ASSERT_OK(db->RetireBranch(b));
      check_gets(b);
      check_branch(b);
    } else if (action < 10 && live.size() >= 2) {
      // Merge one branch into another (no self-merges). Use two-way
      // precedence so the oracle stays simple: compute the merged table
      // from lca/two sides at key granularity.
      const BranchId into = live[rng.Uniform(live.size())];
      BranchId from = branches[rng.Uniform(branches.size())];
      if (from != into) {
        // The facade auto-commits both heads before merging; snapshot both
        // sides so those commits land in the oracle too.
        const Oracle::Table pre_into = oracle.branches[into];
        const Oracle::Table pre_from = oracle.branches[from];
        auto merged = db->Merge(into, from, MergePolicy::kTwoWayLeft);
        ASSERT_TRUE(merged.ok()) << merged.status().ToString();
        {
          auto commit = db->graph().GetCommit(merged->commit);
          ASSERT_TRUE(commit.ok());
          oracle.commits[commit->parents[0]] = pre_into;
          oracle.commits[commit->parents[1]] = pre_from;
        }
        // Recompute the oracle merge from the lca snapshot.
        const CommitId lca_commit = [&] {
          auto commit = db->graph().GetCommit(merged->commit);
          EXPECT_TRUE(commit.ok());
          auto lca = db->graph().Lca(commit->parents[0], commit->parents[1]);
          EXPECT_TRUE(lca.ok());
          return *lca;
        }();
        ASSERT_TRUE(oracle.commits.count(lca_commit))
            << "oracle missing lca " << lca_commit;
        const Oracle::Table& base = oracle.commits[lca_commit];
        const Oracle::Table& left = oracle.branches[into];
        const Oracle::Table& right = oracle.branches[from];
        Oracle::Table result = left;
        std::set<int64_t> keys;
        for (const auto& [k, v] : base) keys.insert(k);
        for (const auto& [k, v] : right) keys.insert(k);
        for (int64_t k : keys) {
          const bool in_base = base.count(k) != 0;
          const bool in_left = left.count(k) != 0;
          const bool in_right = right.count(k) != 0;
          const bool left_changed =
              in_base != in_left || (in_base && left.at(k) != base.at(k));
          const bool right_changed =
              in_base != in_right || (in_base && right.at(k) != base.at(k));
          if (right_changed && !left_changed) {
            if (in_right) {
              result[k] = right.at(k);
            } else {
              result.erase(k);
            }
          }
          // left-changed or both-changed: left wins (kTwoWayLeft).
        }
        oracle.branches[into] = result;
        oracle.commits[merged->commit] = result;
      }
    }

    // Point reads on every branch, and scans of a couple, each round;
    // every few rounds, a reopen and a scan of every branch.
    for (BranchId b : branches) check_gets(b);
    check_branch(branches[rng.Uniform(branches.size())]);
    check_branch(branches[rng.Uniform(branches.size())]);
    if (round % 10 == 9) {
      reopen();
      for (BranchId b : branches) {
        check_branch(b);
        check_gets(b);
      }
    }
  }

  // Final: every branch, every remembered commit, and pairwise diffs.
  for (BranchId b : branches) check_branch(b);
  for (const auto& [commit, table] : oracle.commits) {
    auto it = db->NewScan(ScanSpec::Commit(commit));
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    auto rows = testing_util::Collect(it.value().get());
    EXPECT_EQ(rows, table) << "commit " << commit << " diverged";
  }
  for (size_t i = 0; i + 1 < branches.size(); ++i) {
    const BranchId a = branches[i];
    const BranchId b = branches[i + 1];
    const std::set<int64_t> pos = testing_util::DiffKeys(db.get(), a, b);
    const std::set<int64_t> neg = testing_util::DiffKeys(db.get(), b, a);
    std::set<int64_t> expected_pos, expected_neg;
    for (const auto& [k, v] : oracle.branches[a]) {
      if (oracle.branches[b].count(k) == 0) expected_pos.insert(k);
    }
    for (const auto& [k, v] : oracle.branches[b]) {
      if (oracle.branches[a].count(k) == 0) expected_neg.insert(k);
    }
    EXPECT_EQ(pos, expected_pos) << "diff(" << a << "," << b << ") pos";
    EXPECT_EQ(neg, expected_neg) << "diff(" << a << "," << b << ") neg";
  }

  // Multi-branch scan annotations must match per-branch membership.
  std::map<int64_t, std::map<uint32_t, int32_t>> seen;
  {
    auto it = db->NewScan(ScanSpec::Multi(branches));
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    ScanRow row;
    while ((*it)->Next(&row)) {
      for (uint32_t p : *row.branches) {
        seen[row.record.pk()][p] = row.record.GetInt32(1);
      }
    }
    ASSERT_OK((*it)->status());
  }
  for (size_t p = 0; p < branches.size(); ++p) {
    for (const auto& [pk, val] : oracle.branches[branches[p]]) {
      ASSERT_TRUE(seen.count(pk) && seen[pk].count(static_cast<uint32_t>(p)))
          << "multi-scan missing pk " << pk << " of branch " << branches[p];
      EXPECT_EQ(seen[pk][static_cast<uint32_t>(p)], val);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSeeds, ModelTest,
    ::testing::Combine(::testing::Values(EngineType::kTupleFirst,
                                         EngineType::kVersionFirst,
                                         EngineType::kHybrid),
                       ::testing::Values(1u, 7u, 42u, 1234u, 2u, 3u, 4u, 5u,
                                         6u, 8u, 9u, 10u, 11u, 12u, 13u, 14u,
                                         15u, 16u, 17u, 18u)),
    [](const auto& info) {
      const char* name = EngineTypeName(std::get<0>(info.param));
      std::string engine =
          std::string(name) == "tuple-first"    ? "TupleFirst"
          : std::string(name) == "version-first" ? "VersionFirst"
                                                  : "Hybrid";
      return engine + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace decibel
