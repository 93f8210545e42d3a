#ifndef DECIBEL_QUERY_QUERIES_H_
#define DECIBEL_QUERY_QUERIES_H_

/// \file queries.h
/// The four versioned query families of the benchmark (§4.3 / Table 1),
/// implemented over the Decibel facade:
///
///   Q1  single-version scan        SELECT * FROM R WHERE Version='v'
///   Q2  multi-version positive diff  ... id NOT IN (SELECT id ... 'v2')
///   Q3  multi-version primary-key join with a predicate
///   Q4  several-version scan over all branch heads (HEAD(Version))
///
/// Each operator streams rows to a callback and returns row/byte counts so
/// the benchmark driver can report work done.

#include <functional>

#include "core/decibel.h"
#include "query/predicate.h"

namespace decibel {
namespace query {

struct QueryStats {
  uint64_t rows_emitted = 0;
  uint64_t rows_scanned = 0;
  uint64_t bytes_scanned = 0;
};

using RowCallback = std::function<void(const RecordRef&)>;
/// Joined rows: the two versions of the same key.
using JoinCallback =
    std::function<void(const RecordRef& left, const RecordRef& right)>;
/// Q4 rows carry their branch annotations: positions into the heads
/// list, in Decibel::ActiveBranches order.
using AnnotatedRowCallback =
    std::function<void(const RecordRef&, Membership)>;

/// Q1: scan one branch, emitting records matching \p predicate.
Result<QueryStats> ScanVersion(Decibel* db, BranchId branch,
                               const Predicate& predicate,
                               const RowCallback& callback);

/// Q1 on a historical commit.
Result<QueryStats> ScanVersionAt(Decibel* db, CommitId commit,
                                 const Predicate& predicate,
                                 const RowCallback& callback);

/// Q2: positive diff — records in \p a whose key is absent from \p b
/// (the SQL "NOT IN" form of Table 1).
Result<QueryStats> PositiveDiff(Decibel* db, BranchId a, BranchId b,
                                const RowCallback& callback);

/// Q3: primary-key join of two branches; emits pairs where the \p a side
/// satisfies \p predicate. Reads one ScanSpec::Multi({a, b}) cursor a
/// page at a time: a row live in both heads is the same stored version on
/// both sides and is emitted as (row, row) with no copy; only rows live
/// in one head are copied, a's keyed by pk in a hash table that b's probe
/// after the pass. QueryStats::rows_scanned is that cursor's count of
/// live versions in the two heads.
Result<QueryStats> JoinVersions(Decibel* db, BranchId a, BranchId b,
                                const Predicate& predicate,
                                const JoinCallback& callback);

/// Q4: scan the heads of all active branches, emitting records that match
/// \p predicate annotated with the branches they are live in.
Result<QueryStats> ScanHeads(Decibel* db, const Predicate& predicate,
                             const AnnotatedRowCallback& callback);

/// Simple aggregates over one branch (the "calculating an average of some
/// value per branch" example of §3.2's multi-branch scan discussion).
struct AggregateResult {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  double avg = 0;
};

/// Aggregates an integer column over the records of \p branch matching
/// \p predicate.
Result<AggregateResult> AggregateColumn(Decibel* db, BranchId branch,
                                        const std::string& column,
                                        const Predicate& predicate);

/// Per-branch aggregates for several branches in ONE pass over the data
/// (the shared-computation win of the multi-branch scan, §3.2). Returns
/// one AggregateResult per requested branch.
Result<std::vector<AggregateResult>> AggregatePerBranch(
    Decibel* db, const std::vector<BranchId>& branches,
    const std::string& column, const Predicate& predicate);

}  // namespace query
}  // namespace decibel

#endif  // DECIBEL_QUERY_QUERIES_H_
