/// Ablation: branch-oriented vs tuple-oriented bitmaps in the tuple-first
/// engine (§3.1 describes both layouts; §5 picks branch-oriented "due to
/// its suitability for our commit procedure", and the conclusion notes
/// both row- and column-oriented layouts were evaluated).
///
/// Expected shape: tuple-oriented single-branch scans pay for walking the
/// whole matrix to materialize one column; multi-branch scans are closer
/// (both gather per-tuple membership); branching is cheaper for
/// branch-oriented (memcpy of one column vs a bit-per-row pass).

#include "common/stopwatch.h"

#include "bench_common.h"

namespace decibel {
namespace bench {
namespace {

Result<ScopedDb> FreshOriented(BitmapOrientation orientation,
                               const std::string& tag) {
  static int counter = 0;
  ScopedDb scoped;
  scoped.path = "/tmp/decibel_orient_" + std::to_string(::getpid()) + "_" +
                tag + "_" + std::to_string(counter++);
  DECIBEL_RETURN_NOT_OK(RemoveDirRecursive(scoped.path));
  DecibelOptions options;
  options.engine = EngineType::kTupleFirst;
  options.orientation = orientation;
  options.page_size = 64 << 10;
  options.sync_mode = wal::SyncMode::kOff;
  DECIBEL_ASSIGN_OR_RETURN(scoped.db,
                           Decibel::Open(scoped.path, BenchSchema(), options));
  return scoped;
}

void Run() {
  const int num_branches = EnvInt("DECIBEL_BRANCHES", 10);

  printf("=== Ablation: tuple-first bitmap orientation (flat, %d branches) "
         "===\n",
         num_branches);
  printf("%-18s %16s %16s %16s\n", "orientation", "Q1 (ms)", "Q4 (ms)",
         "branch op (ms)");

  for (BitmapOrientation orientation :
       {BitmapOrientation::kBranchOriented,
        BitmapOrientation::kTupleOriented}) {
    BENCH_ASSIGN_OR_DIE(ScopedDb scoped,
                        FreshOriented(orientation, "ab_orient"));
    WorkloadConfig config = BaseConfig(Strategy::kFlat, num_branches);
    BENCH_ASSIGN_OR_DIE(LoadedWorkload w,
                        LoadWorkload(scoped.db.get(), config));
    Random rng(7);
    BENCH_ASSIGN_OR_DIE(TimedQuery q1,
                        TimedQ1(scoped.db.get(), SelectQ1Target(w, &rng)));
    BENCH_ASSIGN_OR_DIE(TimedQuery q4, TimedQ4(scoped.db.get()));

    // Branch-operation cost: clone the full mainline bitmap (§3.2).
    Session s = scoped.db->NewSession();
    BENCH_CHECK_OK(scoped.db->Use(&s, kMasterBranch));
    Stopwatch timer;
    const int branch_trials = 10;
    for (int t = 0; t < branch_trials; ++t) {
      BENCH_CHECK_OK(scoped.db->Use(&s, kMasterBranch));
      BENCH_CHECK_OK(
          scoped.db->Branch("ab_" + std::to_string(t), &s).status());
    }
    const double branch_ms = timer.ElapsedMillis() / branch_trials;

    printf("%-18s %16.2f %16.2f %16.3f\n",
           orientation == BitmapOrientation::kBranchOriented
               ? "branch-oriented"
               : "tuple-oriented",
           q1.seconds * 1e3, q4.seconds * 1e3, branch_ms);
  }
}

}  // namespace
}  // namespace bench
}  // namespace decibel

int main() {
  decibel::bench::Run();
  return 0;
}
