#ifndef DECIBEL_VERSION_VERSION_GRAPH_H_
#define DECIBEL_VERSION_VERSION_GRAPH_H_

/// \file version_graph.h
/// The version graph (§2.2.2): a DAG of commits, where each commit belongs
/// to a branch and may have one parent (ordinary commit), zero parents
/// (the init commit), or two parents (a merge commit; first parent has
/// precedence). Branches are named lines of development whose head is
/// their latest commit.
///
/// "we depend on a version graph recording the relationships between the
/// versions being available in memory in all approaches (this graph is
/// updated and persisted on disk as a part of each branch or commit
/// operation)" — §3.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "version/types.h"

namespace decibel {

struct CommitInfo {
  CommitId id = kInvalidCommit;
  BranchId branch = kInvalidBranch;
  /// Parent commits; for merge commits parents[0] is the branch merged
  /// *into* (precedence side by default).
  std::vector<CommitId> parents;
};

struct BranchInfo {
  BranchId id = kInvalidBranch;
  std::string name;
  /// The commit this branch started from (invalid for master).
  CommitId base_commit = kInvalidCommit;
  /// The branch base_commit belonged to (invalid for master).
  BranchId parent_branch = kInvalidBranch;
  CommitId head = kInvalidCommit;
  /// False once retired (the science workload stops updating a branch
  /// after its lifetime, §4.1).
  bool active = true;
};

class VersionGraph {
 public:
  VersionGraph() = default;

  /// Creates the master branch and the init commit (§2.2.3 Init).
  /// Returns the init commit id.
  Result<CommitId> Init(const std::string& master_name = "master");

  /// Creates a branch named \p name from commit \p from (any commit, not
  /// just heads — "a new branch can be made from any commit").
  Result<BranchId> CreateBranch(const std::string& name, CommitId from);

  /// Appends a commit to \p branch and returns its id.
  Result<CommitId> AddCommit(BranchId branch);

  /// Appends a merge commit to \p into whose second parent is the head of
  /// \p from. Returns the new commit.
  Result<CommitId> AddMergeCommit(BranchId into, BranchId from);

  bool HasBranch(BranchId b) const { return b < branches_.size(); }
  bool HasCommit(CommitId c) const { return commits_.count(c) != 0; }

  Result<BranchInfo> GetBranch(BranchId b) const;
  Result<CommitInfo> GetCommit(CommitId c) const;
  Result<BranchId> FindBranchByName(const std::string& name) const;

  CommitId Head(BranchId b) const;
  /// True if \p c is the head of some branch (Table 1 query 4's HEAD()).
  bool IsHead(CommitId c) const;
  void SetActive(BranchId b, bool active);

  size_t num_branches() const { return branches_.size(); }
  size_t num_commits() const { return commits_.size(); }
  const std::vector<BranchInfo>& branches() const { return branches_; }

  /// All branch ids, in creation order.
  std::vector<BranchId> AllBranches() const;
  /// Branches still marked active.
  std::vector<BranchId> ActiveBranches() const;

  /// Lowest common ancestor of two commits: the common ancestor with the
  /// largest commit id (ids increase monotonically along edges, so this is
  /// the "latest" common ancestor, the lca the merge algorithms need,
  /// §3.2/§3.3).
  Result<CommitId> Lca(CommitId a, CommitId b) const;

  /// Every ancestor commit of \p c (including c itself).
  std::vector<CommitId> Ancestors(CommitId c) const;

  /// True if \p maybe_ancestor is an ancestor of (or equal to) \p c.
  bool IsAncestor(CommitId maybe_ancestor, CommitId c) const;

  /// Persistence: the graph is rewritten on every branch/commit operation
  /// in the paper; we expose explicit save/load.
  void EncodeTo(std::string* dst) const;
  /// Decodes a graph from the front of \p input and advances past it.
  static Result<VersionGraph> DecodeFrom(Slice* input);

  /// WAL-replay entry points. Unlike AddCommit/CreateBranch these take the
  /// ids the original operation assigned and are idempotent: re-applying a
  /// record whose effect already reached the persisted graph is a no-op,
  /// so recovery may replay from any point at or before the graph's state.

  /// Re-applies a (possibly merge) commit \p id on \p branch.
  Status ReplayCommit(CommitId id, BranchId branch,
                      const std::vector<CommitId>& parents);
  /// Re-applies the creation of branch \p id; \p head is the head the
  /// branch started with (its base commit, or older for BranchAt).
  Status ReplayBranch(BranchId id, const std::string& name, CommitId base,
                      BranchId parent_branch, CommitId head);

 private:
  Result<CommitId> AddCommitInternal(BranchId branch,
                                     std::vector<CommitId> parents);

  std::vector<BranchInfo> branches_;
  std::unordered_map<CommitId, CommitInfo> commits_;
  CommitId next_commit_ = 1;
};

}  // namespace decibel

#endif  // DECIBEL_VERSION_VERSION_GRAPH_H_
