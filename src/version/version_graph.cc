#include "version/version_graph.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "common/coding.h"

namespace decibel {

Result<CommitId> VersionGraph::Init(const std::string& master_name) {
  if (!branches_.empty()) {
    return Status::InvalidArgument("version graph: already initialized");
  }
  BranchInfo master;
  master.id = kMasterBranch;
  master.name = master_name;
  branches_.push_back(master);
  return AddCommitInternal(kMasterBranch, {});
}

Result<CommitId> VersionGraph::AddCommitInternal(
    BranchId branch, std::vector<CommitId> parents) {
  const CommitId id = next_commit_++;
  CommitInfo info;
  info.id = id;
  info.branch = branch;
  info.parents = std::move(parents);
  commits_.emplace(id, std::move(info));
  branches_[branch].head = id;
  return id;
}

Result<BranchId> VersionGraph::CreateBranch(const std::string& name,
                                            CommitId from) {
  auto it = commits_.find(from);
  if (it == commits_.end()) {
    return Status::NotFound("version graph: no commit " +
                            std::to_string(from));
  }
  for (const auto& b : branches_) {
    if (b.name == name) {
      return Status::AlreadyExists("version graph: branch '" + name + "'");
    }
  }
  BranchInfo info;
  info.id = static_cast<BranchId>(branches_.size());
  info.name = name;
  info.base_commit = from;
  info.parent_branch = it->second.branch;
  // The branch starts at its base commit; its first own commit comes with
  // the first modification batch.
  info.head = from;
  branches_.push_back(info);
  return info.id;
}

Result<CommitId> VersionGraph::AddCommit(BranchId branch) {
  if (!HasBranch(branch)) {
    return Status::NotFound("version graph: no branch " +
                            std::to_string(branch));
  }
  return AddCommitInternal(branch, {branches_[branch].head});
}

Result<CommitId> VersionGraph::AddMergeCommit(BranchId into, BranchId from) {
  if (!HasBranch(into) || !HasBranch(from)) {
    return Status::NotFound("version graph: bad branch in merge");
  }
  return AddCommitInternal(into,
                           {branches_[into].head, branches_[from].head});
}

Result<BranchInfo> VersionGraph::GetBranch(BranchId b) const {
  if (!HasBranch(b)) {
    return Status::NotFound("version graph: no branch " + std::to_string(b));
  }
  return branches_[b];
}

Result<CommitInfo> VersionGraph::GetCommit(CommitId c) const {
  auto it = commits_.find(c);
  if (it == commits_.end()) {
    return Status::NotFound("version graph: no commit " + std::to_string(c));
  }
  return it->second;
}

Result<BranchId> VersionGraph::FindBranchByName(
    const std::string& name) const {
  for (const auto& b : branches_) {
    if (b.name == name) return b.id;
  }
  return Status::NotFound("version graph: no branch named '" + name + "'");
}

CommitId VersionGraph::Head(BranchId b) const {
  return HasBranch(b) ? branches_[b].head : kInvalidCommit;
}

bool VersionGraph::IsHead(CommitId c) const {
  for (const auto& b : branches_) {
    if (b.head == c) return true;
  }
  return false;
}

void VersionGraph::SetActive(BranchId b, bool active) {
  if (HasBranch(b)) branches_[b].active = active;
}

std::vector<BranchId> VersionGraph::AllBranches() const {
  std::vector<BranchId> out(branches_.size());
  for (size_t i = 0; i < branches_.size(); ++i) {
    out[i] = static_cast<BranchId>(i);
  }
  return out;
}

std::vector<BranchId> VersionGraph::ActiveBranches() const {
  std::vector<BranchId> out;
  for (const auto& b : branches_) {
    if (b.active) out.push_back(b.id);
  }
  return out;
}

std::vector<CommitId> VersionGraph::Ancestors(CommitId c) const {
  std::vector<CommitId> out;
  std::unordered_set<CommitId> seen;
  std::vector<CommitId> stack{c};
  while (!stack.empty()) {
    const CommitId cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    auto it = commits_.find(cur);
    if (it == commits_.end()) continue;
    out.push_back(cur);
    for (CommitId p : it->second.parents) stack.push_back(p);
  }
  return out;
}

bool VersionGraph::IsAncestor(CommitId maybe_ancestor, CommitId c) const {
  if (maybe_ancestor == c) return true;
  std::unordered_set<CommitId> seen;
  std::vector<CommitId> stack{c};
  while (!stack.empty()) {
    const CommitId cur = stack.back();
    stack.pop_back();
    if (cur == maybe_ancestor) return true;
    // Commit ids increase along edges: prune ancestors older than target.
    if (cur < maybe_ancestor) continue;
    if (!seen.insert(cur).second) continue;
    auto it = commits_.find(cur);
    if (it == commits_.end()) continue;
    for (CommitId p : it->second.parents) stack.push_back(p);
  }
  return false;
}

Result<CommitId> VersionGraph::Lca(CommitId a, CommitId b) const {
  if (!HasCommit(a) || !HasCommit(b)) {
    return Status::NotFound("version graph: bad commit in lca");
  }
  // Ids increase monotonically along edges, so walking both ancestor
  // frontiers in decreasing id order finds the latest common ancestor: a
  // max-heap of the union frontier; the first id reached from both sides
  // is the lca.
  std::priority_queue<CommitId> frontier;
  std::unordered_map<CommitId, uint8_t> reached;  // bit 0: from a, 1: from b
  frontier.push(a);
  reached[a] |= 1;
  frontier.push(b);
  reached[b] |= 2;
  while (!frontier.empty()) {
    const CommitId cur = frontier.top();
    frontier.pop();
    const uint8_t mask = reached[cur];
    if (mask == 3) return cur;
    auto it = commits_.find(cur);
    if (it == commits_.end()) continue;
    for (CommitId p : it->second.parents) {
      uint8_t& pm = reached[p];
      if ((pm | mask) != pm) {
        pm |= mask;
        frontier.push(p);
      }
    }
  }
  return Status::NotFound("version graph: no common ancestor");
}

Status VersionGraph::ReplayCommit(CommitId id, BranchId branch,
                                  const std::vector<CommitId>& parents) {
  if (!HasBranch(branch)) {
    return Status::Corruption("version graph: replayed commit " +
                              std::to_string(id) + " on unknown branch " +
                              std::to_string(branch));
  }
  if (HasCommit(id)) return Status::OK();  // already in the persisted graph
  CommitInfo info;
  info.id = id;
  info.branch = branch;
  info.parents = parents;
  commits_.emplace(id, std::move(info));
  branches_[branch].head = id;
  if (id >= next_commit_) next_commit_ = id + 1;
  return Status::OK();
}

Status VersionGraph::ReplayBranch(BranchId id, const std::string& name,
                                  CommitId base, BranchId parent_branch,
                                  CommitId head) {
  if (HasBranch(id)) return Status::OK();  // already in the persisted graph
  if (id != branches_.size()) {
    return Status::Corruption("version graph: replayed branch " +
                              std::to_string(id) + " leaves a gap (have " +
                              std::to_string(branches_.size()) + ")");
  }
  BranchInfo info;
  info.id = id;
  info.name = name;
  info.base_commit = base;
  info.parent_branch = parent_branch;
  info.head = head;
  branches_.push_back(std::move(info));
  return Status::OK();
}

void VersionGraph::EncodeTo(std::string* dst) const {
  PutVarint64(dst, next_commit_);
  PutVarint64(dst, branches_.size());
  for (const auto& b : branches_) {
    PutLengthPrefixed(dst, b.name);
    PutVarint64(dst, b.base_commit);
    PutVarint32(dst, b.parent_branch);
    PutVarint64(dst, b.head);
    dst->push_back(b.active ? 1 : 0);
  }
  PutVarint64(dst, commits_.size());
  // Commits in id order for deterministic files.
  std::vector<CommitId> ids;
  ids.reserve(commits_.size());
  for (const auto& [id, info] : commits_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (CommitId id : ids) {
    const CommitInfo& c = commits_.at(id);
    PutVarint64(dst, c.id);
    PutVarint32(dst, c.branch);
    PutVarint64(dst, c.parents.size());
    for (CommitId p : c.parents) PutVarint64(dst, p);
  }
}

Result<VersionGraph> VersionGraph::DecodeFrom(Slice* input) {
  VersionGraph g;
  uint64_t next_commit, num_branches;
  if (!GetVarint64(input, &next_commit) ||
      !GetVarint64(input, &num_branches)) {
    return Status::Corruption("version graph: truncated header");
  }
  g.next_commit_ = next_commit;
  for (uint64_t i = 0; i < num_branches; ++i) {
    BranchInfo b;
    Slice name;
    uint64_t base, head;
    if (!GetLengthPrefixed(input, &name) || !GetVarint64(input, &base) ||
        !GetVarint32(input, &b.parent_branch) ||
        !GetVarint64(input, &head) || input->empty()) {
      return Status::Corruption("version graph: truncated branch");
    }
    b.id = static_cast<BranchId>(i);
    b.name = name.ToString();
    b.base_commit = base;
    b.head = head;
    b.active = (*input)[0] != 0;
    input->RemovePrefix(1);
    g.branches_.push_back(std::move(b));
  }
  uint64_t num_commits;
  if (!GetVarint64(input, &num_commits)) {
    return Status::Corruption("version graph: truncated commit count");
  }
  for (uint64_t i = 0; i < num_commits; ++i) {
    CommitInfo c;
    uint64_t id, nparents;
    if (!GetVarint64(input, &id) || !GetVarint32(input, &c.branch) ||
        !GetVarint64(input, &nparents)) {
      return Status::Corruption("version graph: truncated commit");
    }
    c.id = id;
    for (uint64_t p = 0; p < nparents; ++p) {
      uint64_t parent;
      if (!GetVarint64(input, &parent)) {
        return Status::Corruption("version graph: truncated parent list");
      }
      c.parents.push_back(parent);
    }
    g.commits_.emplace(c.id, std::move(c));
  }
  return g;
}

}  // namespace decibel
