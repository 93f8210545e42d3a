/// Quickstart: the transaction-centric Decibel API in one sitting.
///
/// Creates a dataset, loads it through a multi-statement transaction,
/// commits a version, branches it, makes diverging edits (one per-record,
/// one transactional), reads through ScanSpec cursors (predicate and
/// projection pushed into the engine) and point lookups, inspects the
/// diff, merges the branch back with a field-level three-way merge, and
/// shows the abort-and-retry discipline for lock-timeout Status::Aborted
/// — the core loop of §2.2.3.
///
///   $ ./quickstart [db_path]

#include <cstdio>

#include "common/io.h"
#include "core/decibel.h"

using namespace decibel;

namespace {

void PrintBranch(Decibel* db, BranchId branch, const char* label) {
  printf("--- %s ---\n", label);
  auto cursor = db->NewScan(ScanSpec::Branch(branch));
  if (!cursor.ok()) {
    printf("error: %s\n", cursor.status().ToString().c_str());
    return;
  }
  ScanRow row;
  while ((*cursor)->Next(&row)) {
    printf("  pk=%lld  qty=%d  price=%d\n",
           static_cast<long long>(row.record.pk()), row.record.GetInt32(1),
           row.record.GetInt32(2));
  }
}

Record Item(const Schema& schema, int64_t pk, int32_t qty, int32_t price) {
  Record rec(&schema);
  rec.SetPk(pk);
  rec.SetInt32(1, qty);
  rec.SetInt32(2, price);
  return rec;
}

/// The retry discipline for transactional commits: Status::Aborted means
/// the branch lock timed out (another transaction held it too long). The
/// staged batch is retained, so back off and Commit() again.
Status CommitWithRetry(Transaction* txn, int max_attempts = 3) {
  Status status = txn->Commit();
  for (int attempt = 1; status.IsAborted() && attempt < max_attempts;
       ++attempt) {
    printf("commit aborted (%s); retrying...\n",
           status.ToString().c_str());
    status = txn->Commit();
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/decibel_quickstart";
  RemoveDirRecursive(path).ok();

  // A tiny product table: pk, quantity, price.
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"qty", FieldType::kInt32, 0},
                              {"price", FieldType::kInt32, 0}});
  if (!schema.ok()) return 1;

  DecibelOptions options;
  options.engine = EngineType::kHybrid;  // the paper's winning engine
  auto db_result = Decibel::Open(path, *schema, options);
  if (!db_result.ok()) {
    fprintf(stderr, "open failed: %s\n",
            db_result.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_result).MoveValueUnsafe();

  // 1. Populate master inside one transaction: the three inserts stage
  // into a WriteBatch and become visible atomically on Commit(), applied
  // to the engine in a single pass under the branch lock.
  Session session = db->NewSession();
  {
    auto txn = db->Begin(&session);
    if (!txn.ok()) return 1;
    txn->Insert(Item(*schema, 1, 10, 100)).ok();
    txn->Insert(Item(*schema, 2, 5, 250)).ok();
    txn->Insert(Item(*schema, 3, 7, 40)).ok();
    if (!CommitWithRetry(&*txn).ok()) return 1;
  }
  const CommitId v1 = *db->Commit(&session);  // version snapshot
  printf("committed version %llu on master\n",
         static_cast<unsigned long long>(v1));

  // 2. Branch off and edit both sides. The restock edits form one atomic
  // transaction; the master price cut uses the per-record convenience
  // path (itself a one-op transaction under the hood).
  const BranchId restock = *db->Branch("restock", &session);
  {
    auto txn = db->Begin(restock);
    if (!txn.ok()) return 1;
    txn->Update(Item(*schema, 1, 50, 100)).ok();   // qty on branch
    txn->Insert(Item(*schema, 4, 12, 75)).ok();    // new item
    if (!CommitWithRetry(&*txn).ok()) return 1;
  }
  db->UpdateIn(kMasterBranch, Item(*schema, 1, 10, 90)).ok();  // price cut

  PrintBranch(db.get(), kMasterBranch, "master (price cut on pk 1)");
  PrintBranch(db.get(), restock, "restock (qty bump on pk 1, new pk 4)");

  // 2b. Reads are ScanSpec cursors: here a WHERE qty < 10, projected to
  // the qty column, pushed into the engine — non-matching rows never
  // leave the storage layer — plus a pk-index point lookup.
  {
    auto low = Predicate::Compare(*schema, "qty", CompareOp::kLt, 10);
    if (!low.ok()) return 1;
    auto cursor = db->NewScan(
        ScanSpec::Branch(restock).Where(*low).Project({1}));
    if (!cursor.ok()) {
      fprintf(stderr, "scan failed: %s\n",
              cursor.status().ToString().c_str());
      return 1;
    }
    printf("--- restock items with qty < 10 (pushed-down scan) ---\n");
    ScanRow row;
    while ((*cursor)->Next(&row)) {
      printf("  pk=%lld  qty=%d\n", static_cast<long long>(row.record.pk()),
             row.record.GetInt32(1));
    }
    auto item = db->Get(restock, 4);  // O(1) through the pk index
    if (item.ok()) {
      printf("point lookup pk=4: qty=%d price=%d\n",
             item->ref().GetInt32(1), item->ref().GetInt32(2));
    }
  }

  // 3. An abort: staged operations are discarded, nothing reaches the
  // branch. (Destroying an uncommitted transaction aborts it too.)
  {
    auto txn = db->Begin(restock);
    if (!txn.ok()) return 1;
    txn->Delete(4).ok();
    txn->Abort().ok();
    printf("aborted a staged delete; pk 4 survives on restock\n");
  }

  // 4. Diff: what does restock have that master lacks? (The other side
  // is ScanSpec::Diff(kMasterBranch, restock).)
  printf("--- keys in restock missing from master ---\n");
  if (auto diff = db->NewScan(ScanSpec::Diff(restock, kMasterBranch));
      diff.ok()) {
    ScanRow row;
    while ((*diff)->Next(&row)) {
      printf("  pk=%lld\n", static_cast<long long>(row.record.pk()));
    }
  }

  // 5. Merge: qty changed on the branch, price on master — disjoint
  // fields, so the three-way merge reconciles without conflicts.
  auto merged = db->Merge(kMasterBranch, restock,
                          MergePolicy::kThreeWayLeft);
  if (!merged.ok()) {
    fprintf(stderr, "merge failed: %s\n",
            merged.status().ToString().c_str());
    return 1;
  }
  printf("merge commit %llu: %llu records merged, %llu conflicts, "
         "%llu field-level merges\n",
         static_cast<unsigned long long>(merged->commit),
         static_cast<unsigned long long>(merged->result.merged_records),
         static_cast<unsigned long long>(merged->result.conflicts),
         static_cast<unsigned long long>(merged->result.field_merges));
  PrintBranch(db.get(), kMasterBranch,
              "master after merge (qty=50 AND price=90 on pk 1)");

  // 6. Time travel: the committed v1 is still intact. A session with a
  // historical checkout routes NewScan and Get to the commit view.
  Session historical = db->NewSession();
  db->Checkout(&historical, v1).ok();
  auto cursor = db->NewScan(historical);
  if (!cursor.ok()) return 1;
  int rows = 0;
  ScanRow row;
  while ((*cursor)->Next(&row)) ++rows;
  auto old_item = db->Get(historical, 1);
  printf("version %llu still has %d rows; pk 1 was qty=%d price=%d\n",
         static_cast<unsigned long long>(v1), rows,
         old_item.ok() ? old_item->ref().GetInt32(1) : -1,
         old_item.ok() ? old_item->ref().GetInt32(2) : -1);
  return 0;
}
