#include "query/queries.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

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
  const PreparedPredicate prepared(predicate, *schema);
  DECIBEL_ASSIGN_OR_RETURN(auto cursor, db->NewScan(ScanSpec::Multi({a, b})));
  QueryStats stats;
  // Rows live in one head only (a's only when they pass the predicate),
  // copied out and matched by key after the pass.
  struct OneSided {
    std::string bytes;
    std::vector<std::pair<int64_t, size_t>> keys;  // (pk, offset in bytes)
    void Add(const RecordRef& rec) {
      keys.emplace_back(rec.pk(), bytes.size());
      bytes.append(rec.data().data(), rec.data().size());
    }
  };
  OneSided only_a, only_b;
  ScanRow row;
  while (cursor->Next(&row)) {
    // Positions into {a, b}, ascending: {0}, {1} or {0, 1}.
    const bool in_a = row.branches->front() == 0;
    const bool in_b = row.branches->back() == 1;
    if (!in_a) {
      only_b.Add(row.record);
    } else if (prepared.Matches(row.record.data().data())) {
      if (!in_b) {
        only_a.Add(row.record);
        continue;
      }
      ++stats.rows_emitted;
      if (callback) callback(row.record, row.record);
    }
  }
  DECIBEL_RETURN_NOT_OK(cursor->status());
  stats.rows_scanned = cursor->stats().rows_scanned;
  stats.bytes_scanned = cursor->stats().bytes_scanned;

  // Versions that differ between the heads: merge-join by key.
  std::sort(only_a.keys.begin(), only_a.keys.end());
  std::sort(only_b.keys.begin(), only_b.keys.end());
  const size_t record_size = schema->record_size();
  size_t i = 0;
  for (const auto& [pk, b_offset] : only_b.keys) {
    while (i < only_a.keys.size() && only_a.keys[i].first < pk) ++i;
    if (i == only_a.keys.size()) break;
    if (only_a.keys[i].first != pk) continue;
    ++stats.rows_emitted;
    if (callback) {
      callback(RecordRef(schema, Slice(only_a.bytes.data() +
                                           only_a.keys[i].second,
                                       record_size)),
               RecordRef(schema, Slice(only_b.bytes.data() + b_offset,
                                       record_size)));
    }
  }
  return stats;
}

Result<QueryStats> ScanHeads(Decibel* db, const Predicate& predicate,
                             const AnnotatedRowCallback& callback) {
  DECIBEL_ASSIGN_OR_RETURN(auto cursor,
                           db->NewScan(ScanSpec::Heads().Where(predicate)));
  ScanRow row;
  while (cursor->Next(&row)) {
    if (callback) callback(row.record, *row.branches);
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
  ScanRow row;
  while (cursor->Next(&row)) {
    const int64_t value = row.record.GetNumeric(col);
    for (uint32_t p : *row.branches) {
      Accumulate(&aggs[p], value);
    }
  }
  DECIBEL_RETURN_NOT_OK(cursor->status());
  for (AggregateResult& agg : aggs) Finalize(&agg);
  return aggs;
}

}  // namespace query
}  // namespace decibel
