/// Figure 9: Query 3 (primary-key join of two versions with a predicate)
/// across the four branching strategies.
///
/// Expected shape (§5.2): trends mirror Q2. Every engine answers Q3 with
/// one two-branch multi view (query::JoinVersions); version-first builds
/// that view from winner tables over both ancestries, which costs extra
/// passes under curation's merge-heavy ancestry.

#include "bench_common.h"

namespace decibel {
namespace bench {
namespace {

void Run() {
  const int num_branches = EnvInt("DECIBEL_BRANCHES", 10);
  const std::vector<std::pair<const char*, Strategy>> cases = {
      {"deep", Strategy::kDeep},
      {"flat", Strategy::kFlat},
      {"sci", Strategy::kScience},
      {"cur", Strategy::kCuration},
  };

  printf("=== Figure 9: Query 3 (pk join) latency (%d branches) ===\n",
         num_branches);
  printf("%-8s %12s %12s %12s\n", "case", "VF (ms)", "TF (ms)", "HY (ms)");

  for (const auto& [label, strategy] : cases) {
    double ms[3];
    for (size_t e = 0; e < AllEngines().size(); ++e) {
      BENCH_ASSIGN_OR_DIE(ScopedDb scoped,
                          FreshDb(AllEngines()[e], "fig9"));
      WorkloadConfig config = BaseConfig(strategy, num_branches);
      BENCH_ASSIGN_OR_DIE(LoadedWorkload w,
                          LoadWorkload(scoped.db.get(), config));
      Random rng(7);
      const auto [a, b] = SelectQ2Pair(w, &rng);
      BENCH_ASSIGN_OR_DIE(TimedQuery q3, TimedQ3(scoped.db.get(), a, b));
      ms[e] = q3.seconds * 1e3;
    }
    printf("%-8s %12.2f %12.2f %12.2f\n", label, ms[0], ms[1], ms[2]);
  }
}

}  // namespace
}  // namespace bench
}  // namespace decibel

int main() {
  decibel::bench::Run();
  return 0;
}
