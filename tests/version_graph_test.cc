/// Unit tests for the version graph: branches, commits, merge edges,
/// lowest-common-ancestor computation and persistence.

#include <gtest/gtest.h>

#include "test_util.h"
#include "version/version_graph.h"

namespace decibel {
namespace {

TEST(VersionGraphTest, InitCreatesMaster) {
  VersionGraph g;
  auto init = g.Init();
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(g.num_branches(), 1u);
  EXPECT_EQ(g.Head(kMasterBranch), *init);
  EXPECT_TRUE(g.IsHead(*init));
  EXPECT_TRUE(g.Init().status().IsInvalidArgument());  // double init
}

TEST(VersionGraphTest, CommitsAdvanceHead) {
  VersionGraph g;
  ASSERT_TRUE(g.Init().ok());
  auto c1 = g.AddCommit(kMasterBranch);
  auto c2 = g.AddCommit(kMasterBranch);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_LT(*c1, *c2);
  EXPECT_EQ(g.Head(kMasterBranch), *c2);
  EXPECT_FALSE(g.IsHead(*c1));
  auto info = g.GetCommit(*c2);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->parents, std::vector<CommitId>{*c1});
}

TEST(VersionGraphTest, BranchFromAnyCommit) {
  VersionGraph g;
  auto init = g.Init();
  ASSERT_TRUE(init.ok());
  auto c1 = g.AddCommit(kMasterBranch);
  ASSERT_TRUE(c1.ok());
  auto dev = g.CreateBranch("dev", *init);  // historical commit
  ASSERT_TRUE(dev.ok());
  auto info = g.GetBranch(*dev);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->base_commit, *init);
  EXPECT_EQ(info->parent_branch, kMasterBranch);
  EXPECT_EQ(g.Head(*dev), *init);
  // Duplicate names rejected; unknown commits rejected.
  EXPECT_TRUE(g.CreateBranch("dev", *c1).status().IsAlreadyExists());
  EXPECT_TRUE(g.CreateBranch("x", 999).status().IsNotFound());
  auto found = g.FindBranchByName("dev");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *dev);
}

TEST(VersionGraphTest, LcaLinearChain) {
  VersionGraph g;
  auto init = g.Init();
  ASSERT_TRUE(init.ok());
  auto c1 = g.AddCommit(kMasterBranch);
  auto dev = g.CreateBranch("dev", *c1);
  ASSERT_TRUE(dev.ok());
  auto c2 = g.AddCommit(kMasterBranch);
  auto d1 = g.AddCommit(*dev);
  ASSERT_TRUE(c2.ok() && d1.ok());
  auto lca = g.Lca(*c2, *d1);
  ASSERT_TRUE(lca.ok());
  EXPECT_EQ(*lca, *c1);
  // lca(x, ancestor(x)) == ancestor.
  auto lca2 = g.Lca(*c2, *c1);
  ASSERT_TRUE(lca2.ok());
  EXPECT_EQ(*lca2, *c1);
  auto lca_self = g.Lca(*d1, *d1);
  ASSERT_TRUE(lca_self.ok());
  EXPECT_EQ(*lca_self, *d1);
}

TEST(VersionGraphTest, LcaAfterMergePrefersLatestCommonAncestor) {
  VersionGraph g;
  ASSERT_TRUE(g.Init().ok());
  auto c1 = g.AddCommit(kMasterBranch);
  auto dev = g.CreateBranch("dev", *c1);
  ASSERT_TRUE(dev.ok());
  auto d1 = g.AddCommit(*dev);
  ASSERT_TRUE(d1.ok());
  auto m = g.AddMergeCommit(kMasterBranch, *dev);  // master absorbs dev
  ASSERT_TRUE(m.ok());
  auto d2 = g.AddCommit(*dev);
  ASSERT_TRUE(d2.ok());
  // After the merge, the lca of the two heads is dev's merged head d1,
  // not the old branch point c1.
  auto lca = g.Lca(g.Head(kMasterBranch), g.Head(*dev));
  ASSERT_TRUE(lca.ok());
  EXPECT_EQ(*lca, *d1);
}

TEST(VersionGraphTest, AncestorsAndIsAncestor) {
  VersionGraph g;
  auto init = g.Init();
  ASSERT_TRUE(init.ok());
  auto c1 = g.AddCommit(kMasterBranch);
  auto dev = g.CreateBranch("dev", *c1);
  ASSERT_TRUE(dev.ok());
  auto d1 = g.AddCommit(*dev);
  ASSERT_TRUE(d1.ok());
  EXPECT_TRUE(g.IsAncestor(*init, *d1));
  EXPECT_TRUE(g.IsAncestor(*c1, *d1));
  EXPECT_FALSE(g.IsAncestor(*d1, *c1));
  auto ancestors = g.Ancestors(*d1);
  EXPECT_EQ(ancestors.size(), 3u);  // d1, c1, init
}

TEST(VersionGraphTest, ActiveBranchTracking) {
  VersionGraph g;
  ASSERT_TRUE(g.Init().ok());
  auto c1 = g.AddCommit(kMasterBranch);
  auto dev = g.CreateBranch("dev", *c1);
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ(g.ActiveBranches().size(), 2u);
  g.SetActive(*dev, false);  // the science pattern retires branches (§4.1)
  EXPECT_EQ(g.ActiveBranches().size(), 1u);
  EXPECT_EQ(g.AllBranches().size(), 2u);
}

TEST(VersionGraphTest, SerializationRoundTrip) {
  VersionGraph g;
  ASSERT_TRUE(g.Init().ok());
  auto c1 = g.AddCommit(kMasterBranch);
  auto dev = g.CreateBranch("dev", *c1);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(g.AddCommit(*dev).ok());
  ASSERT_TRUE(g.AddMergeCommit(kMasterBranch, *dev).ok());
  g.SetActive(*dev, false);

  std::string blob;
  g.EncodeTo(&blob);
  Slice input(blob);
  auto restored = VersionGraph::DecodeFrom(&input);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(input.empty());  // the decoder consumed exactly the graph
  EXPECT_EQ(restored->num_branches(), g.num_branches());
  EXPECT_EQ(restored->num_commits(), g.num_commits());
  EXPECT_EQ(restored->Head(kMasterBranch), g.Head(kMasterBranch));
  EXPECT_EQ(restored->ActiveBranches(), g.ActiveBranches());
  // New commits continue from the right id.
  auto next_old = g.AddCommit(kMasterBranch);
  auto next_new = restored->AddCommit(kMasterBranch);
  ASSERT_TRUE(next_old.ok() && next_new.ok());
  EXPECT_EQ(*next_old, *next_new);
}

TEST(VersionGraphTest, DecodeRejectsGarbage) {
  Slice nonsense("nonsense");
  Slice empty("");
  EXPECT_FALSE(VersionGraph::DecodeFrom(&nonsense).ok());
  EXPECT_FALSE(VersionGraph::DecodeFrom(&empty).ok());
}

}  // namespace
}  // namespace decibel
