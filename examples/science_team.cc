/// The Science pattern (§1.1): a data-science team works off an evolving
/// mainline dataset. Each analyst takes a private branch pinned to the
/// version they started from, cleans and re-labels records there, and can
/// always compare their view against the (still evolving) mainline —
/// without ever copying the dataset.
///
/// The "dataset" here is a toy user-activity table:
///   pk, score (model feature), label (cleaned annotation)

#include <cstdio>

#include "common/io.h"
#include "common/random.h"
#include "core/decibel.h"
#include "query/queries.h"

using namespace decibel;

namespace {

Record Row(const Schema& schema, int64_t pk, int32_t score, int32_t label) {
  Record rec(&schema);
  rec.SetPk(pk);
  rec.SetInt32(1, score);
  rec.SetInt32(2, label);
  return rec;
}

double AverageScore(Decibel* db, BranchId branch) {
  double sum = 0;
  uint64_t count = 0;
  auto stats = query::ScanVersion(db, branch, Predicate(),
                                  [&](const RecordRef& rec) {
                                    sum += rec.GetInt32(1);
                                    ++count;
                                  });
  if (!stats.ok() || count == 0) return 0;
  return sum / static_cast<double>(count);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/decibel_science";
  RemoveDirRecursive(path).ok();
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"score", FieldType::kInt32, 0},
                              {"label", FieldType::kInt32, 0}});
  auto db = Decibel::Open(path, *schema, DecibelOptions{}).MoveValueUnsafe();
  Random rng(7);

  // The mainline ingestion pipeline loads the first snapshot.
  for (int64_t pk = 0; pk < 500; ++pk) {
    db->InsertInto(kMasterBranch,
                   Row(*schema, pk, static_cast<int32_t>(rng.Uniform(100)),
                       /*label=*/0))
        .ok();
  }
  Session ingest = db->NewSession();
  const CommitId snapshot = *db->Commit(&ingest);
  printf("mainline snapshot at commit %llu, avg score %.2f\n",
         static_cast<unsigned long long>(snapshot),
         AverageScore(db.get(), kMasterBranch));

  // Analyst A branches to test a cleaning strategy: outliers re-scored.
  Session alice = db->NewSession();
  const BranchId cleaning = *db->Branch("alice/cleaning", &alice);
  db->Use(&alice, cleaning).ok();
  int cleaned = 0;
  {
    std::vector<Record> fixes;
    auto it = db->NewScan(ScanSpec::Branch(cleaning));
    ScanRow row;
    while ((*it)->Next(&row)) {
      if (row.record.GetInt32(1) > 90) {  // "improper capitalization"
        fixes.push_back(
            Row(*schema, row.record.pk(), 90, row.record.GetInt32(2)));
      }
    }
    // The whole cleaning pass is one transaction: either all outliers are
    // clipped or none are.
    auto txn = db->Begin(&alice);
    if (!txn.ok()) {
      fprintf(stderr, "begin failed: %s\n",
              txn.status().ToString().c_str());
      return 1;
    }
    for (const Record& fix : fixes) {
      txn->Update(fix).ok();
      ++cleaned;
    }
    Status committed = txn->Commit();
    while (committed.IsAborted()) committed = txn->Commit();  // retry
    if (!committed.ok()) {
      fprintf(stderr, "cleaning transaction failed: %s\n",
              committed.ToString().c_str());
      return 1;
    }
  }
  db->Commit(&alice).ok();
  printf("alice clipped %d outliers on her branch (avg %.2f)\n", cleaned,
         AverageScore(db.get(), cleaning));

  // Analyst B branches from the same historical snapshot — not from
  // today's mainline — to keep the training set frozen (§1.1: analysts
  // "limit themselves to the subset of data available when analysis
  // began").
  const BranchId labeling = *db->BranchAt("bob/labels", snapshot);
  for (int64_t pk = 0; pk < 500; pk += 5) {
    db->UpdateIn(labeling,
                 Row(*schema, pk, -1 /*overwritten below*/, 1))
        .ok();
  }
  // Oops — that clobbered scores. Bob re-reads his branch and repairs it
  // against the snapshot he branched from.
  {
    Session fix = db->NewSession();
    db->Checkout(&fix, snapshot).ok();
    auto it = db->NewScan(fix);
    ScanRow row;
    while ((*it)->Next(&row)) {
      if (row.record.pk() % 5 == 0) {
        db->UpdateIn(labeling, Row(*schema, row.record.pk(),
                                   row.record.GetInt32(1), 1))
            .ok();
      }
    }
  }
  db->CommitBranch(labeling).ok();

  // Meanwhile the mainline keeps ingesting.
  for (int64_t pk = 500; pk < 700; ++pk) {
    db->InsertInto(kMasterBranch,
                   Row(*schema, pk, static_cast<int32_t>(rng.Uniform(100)),
                       0))
        .ok();
  }
  db->CommitBranch(kMasterBranch).ok();

  // Each analyst can ask "what changed under me?" cheaply (Q2).
  uint64_t behind = 0;
  if (auto diff = db->NewScan(ScanSpec::Diff(kMasterBranch, labeling));
      diff.ok()) {
    ScanRow row;
    while ((*diff)->Next(&row)) ++behind;
  }
  printf("bob's frozen branch is %llu records behind mainline\n",
         static_cast<unsigned long long>(behind));

  // And the team lead can scan every active line of work at once (Q4).
  size_t heads = 0;
  uint64_t rows = 0;
  {
    auto it = db->NewScan(ScanSpec::Heads());
    if (it.ok()) {
      ScanRow row;
      while ((*it)->Next(&row)) ++rows;
      heads = (*it)->branches().size();
    }
  }
  printf("Q4 over %zu active branches touched %llu distinct records\n",
         heads, static_cast<unsigned long long>(rows));
  printf("final averages: mainline %.2f, alice %.2f, bob %.2f\n",
         AverageScore(db.get(), kMasterBranch),
         AverageScore(db.get(), cleaning),
         AverageScore(db.get(), labeling));
  return 0;
}
