#ifndef DECIBEL_TESTS_TEST_UTIL_H_
#define DECIBEL_TESTS_TEST_UTIL_H_

/// Shared helpers for Decibel tests: scratch directories, record
/// construction, and scan materialization.

#include <gtest/gtest.h>
#include <unistd.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/io.h"
#include "core/decibel.h"
#include "storage/record.h"
#include "storage/schema.h"

namespace decibel {
namespace testing_util {

/// A unique scratch directory removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static int counter = 0;
    path_ = "/tmp/decibel_test_" + std::to_string(::getpid()) + "_" + tag +
            "_" + std::to_string(counter++);
    EXPECT_TRUE(RemoveDirRecursive(path_).ok());
    EXPECT_TRUE(CreateDir(path_).ok());
  }
  ~ScratchDir() { RemoveDirRecursive(path_).ok(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Test schema: pk + N int32 columns.
inline Schema TestSchema(int cols = 3) { return Schema::MakeBenchmark(cols); }

/// Builds a record with pk and all int columns set to \p value.
inline Record MakeRecord(const Schema& schema, int64_t pk, int32_t value) {
  Record r(&schema);
  r.SetPk(pk);
  for (size_t c = 1; c < schema.num_columns(); ++c) {
    r.SetInt32(c, value);
  }
  return r;
}

/// Builds a record with explicit per-column values.
inline Record MakeRecordVals(const Schema& schema, int64_t pk,
                             const std::vector<int32_t>& vals) {
  Record r(&schema);
  r.SetPk(pk);
  for (size_t c = 1; c < schema.num_columns() && c - 1 < vals.size(); ++c) {
    r.SetInt32(c, vals[c - 1]);
  }
  return r;
}

/// Materializes a cursor into pk -> first int column.
inline std::map<int64_t, int32_t> Collect(ScanCursor* cursor) {
  std::map<int64_t, int32_t> out;
  ScanRow row;
  while (cursor->Next(&row)) {
    out[row.record.pk()] = row.record.GetInt32(1);
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  return out;
}

/// Materializes a cursor into pk -> all column values.
inline std::map<int64_t, std::vector<int32_t>> CollectAll(ScanCursor* cursor) {
  std::map<int64_t, std::vector<int32_t>> out;
  ScanRow row;
  while (cursor->Next(&row)) {
    std::vector<int32_t> vals;
    for (size_t c = 1; c < row.record.schema()->num_columns(); ++c) {
      vals.push_back(row.record.GetInt32(c));
    }
    out[row.record.pk()] = vals;
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  return out;
}

inline std::map<int64_t, int32_t> CollectBranch(Decibel* db, BranchId b) {
  auto cursor = db->NewScan(ScanSpec::Branch(b));
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  return Collect(cursor.value().get());
}

/// The keys of the kDiff view: rows of \p a whose key \p b lacks.
inline std::set<int64_t> DiffKeys(Decibel* db, BranchId a, BranchId b) {
  std::set<int64_t> out;
  auto cursor = db->NewScan(ScanSpec::Diff(a, b));
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return out;
  ScanRow row;
  while ((*cursor)->Next(&row)) out.insert(row.record.pk());
  EXPECT_TRUE((*cursor)->status().ok()) << (*cursor)->status().ToString();
  return out;
}

inline std::map<int64_t, std::vector<int32_t>> CollectBranchAll(Decibel* db,
                                                                BranchId b) {
  auto cursor = db->NewScan(ScanSpec::Branch(b));
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  return CollectAll(cursor.value().get());
}

#define ASSERT_OK(expr)                                          \
  do {                                                           \
    const ::decibel::Status _s = (expr);                         \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                       \
  } while (0)

#define EXPECT_OK(expr)                                          \
  do {                                                           \
    const ::decibel::Status _s = (expr);                         \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                       \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                         \
  ASSERT_OK_AND_ASSIGN_IMPL(                                     \
      DECIBEL_ASSIGN_OR_RETURN_NAME(_tmp_, __COUNTER__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)               \
  auto tmp = (rexpr);                                            \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();              \
  lhs = std::move(tmp).MoveValueUnsafe();

}  // namespace testing_util
}  // namespace decibel

#endif  // DECIBEL_TESTS_TEST_UTIL_H_
