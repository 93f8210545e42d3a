#include "query/queries.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "engine/pk_index.h"

namespace decibel {
namespace query {

namespace {

QueryStats ToQueryStats(const ScanStats& stats) {
  QueryStats out;
  out.rows_emitted = stats.rows_emitted;
  out.rows_scanned = stats.rows_scanned;
  out.bytes_scanned = stats.bytes_scanned;
  return out;
}

/// Drains a pushed-down scan, forwarding the matching rows. The work
/// counters come straight from the cursor — the engine reports what it
/// scanned; nothing is re-derived here.
Result<QueryStats> RunScan(Decibel* db, ScanSpec spec,
                           const RowCallback& callback) {
  DECIBEL_ASSIGN_OR_RETURN(auto cursor, db->NewScan(std::move(spec)));
  ScanRow row;
  while (cursor->Next(&row)) {
    if (callback) callback(row.record);
  }
  DECIBEL_RETURN_NOT_OK(cursor->status());
  return ToQueryStats(cursor->stats());
}

}  // namespace

Result<QueryStats> ScanVersion(Decibel* db, BranchId branch,
                               const Predicate& predicate,
                               const RowCallback& callback) {
  return RunScan(db, ScanSpec::Branch(branch).Where(predicate), callback);
}

Result<QueryStats> ScanVersionAt(Decibel* db, CommitId commit,
                                 const Predicate& predicate,
                                 const RowCallback& callback) {
  return RunScan(db, ScanSpec::Commit(commit).Where(predicate), callback);
}

Result<QueryStats> PositiveDiff(Decibel* db, BranchId a, BranchId b,
                                const RowCallback& callback) {
  // Table 1's "id NOT IN" shape is the diff view of the scan API; the
  // engine's bitmap algebra / winner tables run under the cursor.
  return RunScan(db, ScanSpec::Diff(a, b), callback);
}

Result<QueryStats> JoinVersions(Decibel* db, BranchId a, BranchId b,
                                const Predicate& predicate,
                                const JoinCallback& callback) {
  // One pass over the two-branch view (§3.2's scan annotated with branch
  // membership). A row live in both heads is the same stored version on
  // both sides, so it pairs with itself: no copy, no hash. The predicate
  // runs here, not in the scan, because b's rows must be seen whatever
  // their values.
  const Schema* schema = &db->schema();
  const uint32_t record_size = schema->record_size();
  const PreparedPredicate prepared(predicate, *schema);
  DECIBEL_ASSIGN_OR_RETURN(auto cursor, db->NewScan(ScanSpec::Multi({a, b})));
  QueryStats stats;
  // Rows live in one head only, copied out: a's that pass the predicate
  // and b's, each side in scan order.
  std::string only_a, only_b;
  ScanPage page;
  while (cursor->NextPage(&page)) {
    for (size_t i = 0; i < page.size(); i += 64) {
      const uint32_t n =
          static_cast<uint32_t>(std::min<size_t>(64, page.size() - i));
      const uint64_t pass = prepared.MatchEach(&page.records[i], n);
      for (uint32_t k = 0; k < n; ++k) {
        const char* rec = page.records[i + k];
        const Membership in = page.membership(i + k);  // positions in {a, b}
        if (!in.Has(0)) {
          only_b.append(rec, record_size);
        } else if ((pass >> k) & 1) {
          if (!in.Has(1)) {
            only_a.append(rec, record_size);
            continue;
          }
          ++stats.rows_emitted;
          if (callback) callback(page.record(i + k), page.record(i + k));
        }
      }
    }
  }
  DECIBEL_RETURN_NOT_OK(cursor->status());
  stats.rows_scanned = cursor->stats().rows_scanned;
  stats.bytes_scanned = cursor->stats().bytes_scanned;

  // Versions that differ between the heads: a's keyed by pk (the value is
  // the row's offset in only_a), probed by b's.
  PkTable a_keys;
  a_keys.Reserve(only_a.size() / record_size);
  for (size_t off = 0; off < only_a.size(); off += record_size) {
    a_keys.TryEmplace(RecordRef(schema, Slice(only_a.data() + off,
                                              record_size)).pk(),
                      off);
  }
  for (size_t off = 0; off < only_b.size(); off += record_size) {
    const RecordRef right(schema, Slice(only_b.data() + off, record_size));
    const uint64_t* left = a_keys.Find(right.pk());
    if (left == nullptr) continue;
    ++stats.rows_emitted;
    if (callback) {
      callback(RecordRef(schema, Slice(only_a.data() + *left, record_size)),
               right);
    }
  }
  return stats;
}

Result<QueryStats> ScanHeads(Decibel* db, const Predicate& predicate,
                             const AnnotatedRowCallback& callback) {
  DECIBEL_ASSIGN_OR_RETURN(auto cursor,
                           db->NewScan(ScanSpec::Heads().Where(predicate)));
  ScanPage page;
  while (cursor->NextPage(&page)) {
    if (!callback) continue;
    for (size_t i = 0; i < page.size(); ++i) {
      callback(page.record(i), page.membership(i));
    }
  }
  DECIBEL_RETURN_NOT_OK(cursor->status());
  return ToQueryStats(cursor->stats());
}

namespace {

Result<size_t> ResolveNumericColumn(const Schema& schema,
                                    const std::string& column) {
  const int col = schema.FindColumn(column);
  if (col < 0) {
    return Status::InvalidArgument("aggregate: no column '" + column + "'");
  }
  const FieldType type = schema.column(static_cast<size_t>(col)).type;
  if (type != FieldType::kInt32 && type != FieldType::kInt64) {
    return Status::InvalidArgument("aggregate: column '" + column +
                                   "' is not integer");
  }
  return static_cast<size_t>(col);
}

void Accumulate(AggregateResult* agg, int64_t value) {
  if (agg->count == 0) {
    agg->min = value;
    agg->max = value;
  } else {
    agg->min = std::min(agg->min, value);
    agg->max = std::max(agg->max, value);
  }
  agg->sum += value;
  ++agg->count;
}

void Finalize(AggregateResult* agg) {
  agg->avg = agg->count == 0
                 ? 0
                 : static_cast<double>(agg->sum) /
                       static_cast<double>(agg->count);
}

}  // namespace

Result<AggregateResult> AggregateColumn(Decibel* db, BranchId branch,
                                        const std::string& column,
                                        const Predicate& predicate) {
  DECIBEL_ASSIGN_OR_RETURN(size_t col,
                           ResolveNumericColumn(db->schema(), column));
  // Project to the aggregated column so copy-out paths move only the
  // bytes the aggregate reads.
  AggregateResult agg;
  DECIBEL_RETURN_NOT_OK(
      RunScan(db,
              ScanSpec::Branch(branch).Where(predicate).Project({col}),
              [&](const RecordRef& rec) {
                Accumulate(&agg, rec.GetNumeric(col));
              })
          .status());
  Finalize(&agg);
  return agg;
}

Result<std::vector<AggregateResult>> AggregatePerBranch(
    Decibel* db, const std::vector<BranchId>& branches,
    const std::string& column, const Predicate& predicate) {
  DECIBEL_ASSIGN_OR_RETURN(size_t col,
                           ResolveNumericColumn(db->schema(), column));
  std::vector<AggregateResult> aggs(branches.size());
  // "if a query is calculating an average of some value per branch, the
  // query executor makes a single pass on the heap file, emitting each
  // tuple annotated with the branches it is active in" (§3.2).
  DECIBEL_ASSIGN_OR_RETURN(
      auto cursor, db->NewScan(ScanSpec::Multi(branches)
                                   .Where(predicate)
                                   .Project({col})));
  ScanPage page;
  while (cursor->NextPage(&page)) {
    for (size_t i = 0; i < page.size(); ++i) {
      const int64_t value = page.record(i).GetNumeric(col);
      page.membership(i).ForEach(
          [&](uint32_t p) { Accumulate(&aggs[p], value); });
    }
  }
  DECIBEL_RETURN_NOT_OK(cursor->status());
  for (AggregateResult& agg : aggs) Finalize(&agg);
  return aggs;
}

}  // namespace query
}  // namespace decibel
