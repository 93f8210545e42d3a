/// Failure injection: corruption and misuse must surface as Status errors,
/// never as crashes or silent wrong answers. Covers corrupted engine
/// metadata, version-graph files, commit histories, and API misuse at the
/// facade boundary.

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/decibel.h"
#include "test_util.h"
#include "wal/manifest.h"

namespace decibel {
namespace {

using testing_util::MakeRecord;
using testing_util::ScratchDir;
using testing_util::TestSchema;

class FailureTest : public ::testing::TestWithParam<EngineType> {
 protected:
  DecibelOptions Options() const {
    DecibelOptions options;
    options.engine = GetParam();
    options.page_size = 4096;
    return options;
  }

  /// Builds a small flushed database and returns its path.
  std::string BuildDb(ScratchDir* dir) {
    auto db = Decibel::Open(dir->path(), schema_, Options());
    EXPECT_TRUE(db.ok());
    for (int64_t pk = 0; pk < 100; ++pk) {
      EXPECT_OK((*db)->InsertInto(kMasterBranch,
                                  MakeRecord(schema_, pk, 1)));
    }
    EXPECT_TRUE((*db)->CommitBranch(kMasterBranch).ok());
    EXPECT_OK((*db)->Flush());
    return dir->path();
  }

  /// Flips a byte in the middle of the named file.
  void CorruptFile(const std::string& path, size_t offset_from_middle = 0) {
    auto contents = ReadFileToString(path);
    ASSERT_TRUE(contents.ok()) << path;
    ASSERT_FALSE(contents->empty());
    std::string mutated = *contents;
    mutated[mutated.size() / 2 + offset_from_middle] ^= 0x5a;
    ASSERT_OK(WriteStringToFile(path, mutated));
  }

  /// "." + the tag of the database's current checkpoint: the suffix of
  /// the graph and engine-meta files a reopen reads.
  std::string CheckpointSuffix(const std::string& db_path) {
    auto manifest = wal::ReadCurrentManifest(db_path);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    return manifest.ok() ? "." + manifest->checkpoint_tag : "";
  }

  /// Finds a file under \p root whose name contains \p needle.
  std::string FindFile(const std::string& root, const std::string& needle) {
    auto names = ListDir(root);
    if (!names.ok()) return "";
    for (const std::string& name : *names) {
      const std::string child = JoinPath(root, name);
      if (name.find(needle) != std::string::npos) return child;
      auto sub = FindFile(child, needle);
      if (!sub.empty()) return sub;
    }
    return "";
  }

  Schema schema_ = TestSchema(2);
};

TEST_P(FailureTest, CorruptVersionGraphIsDetected) {
  ScratchDir dir("fail");
  const std::string path = BuildDb(&dir);
  CorruptFile(JoinPath(path, "graph.bin" + CheckpointSuffix(path)));
  auto reopened = Decibel::Open(path, schema_, Options());
  EXPECT_FALSE(reopened.ok());
}

TEST_P(FailureTest, CorruptEngineMetaIsDetected) {
  ScratchDir dir("fail");
  const std::string path = BuildDb(&dir);
  const std::string meta =
      JoinPath(JoinPath(path, EngineTypeName(GetParam())),
               "engine.meta" + CheckpointSuffix(path));
  ASSERT_TRUE(FileExists(meta)) << meta;
  CorruptFile(meta);
  auto reopened = Decibel::Open(path, schema_, Options());
  // Either the open fails outright, or (if the flipped byte happened to
  // land in recoverable padding) subsequent reads must still be sane;
  // what must never happen is a crash.
  if (reopened.ok()) {
    auto rows = (*reopened)->NewScan(ScanSpec::Branch(kMasterBranch));
    if (rows.ok()) {
      ScanRow row;
      while ((*rows)->Next(&row)) {
      }
    }
  } else {
    SUCCEED();
  }
}

TEST_P(FailureTest, CorruptDataFileIsDetectedOnRead) {
  ScratchDir dir("fail");
  const std::string path = BuildDb(&dir);
  const std::string data = FindFile(path, ".dbhf");
  ASSERT_FALSE(data.empty());
  CorruptFile(data);
  auto reopened = Decibel::Open(path, schema_, Options());
  if (!reopened.ok()) {
    SUCCEED();  // header/tail corruption caught at open
    return;
  }
  auto it = (*reopened)->NewScan(ScanSpec::Branch(kMasterBranch));
  if (!it.ok()) {
    EXPECT_TRUE(it.status().IsCorruption()) << it.status().ToString();
    return;
  }
  ScanRow row;
  while ((*it)->Next(&row)) {
  }
  // A checksum failure in a sealed page surfaces through the iterator.
  if (!(*it)->status().ok()) {
    EXPECT_TRUE((*it)->status().IsCorruption());
  }
}

TEST_P(FailureTest, SchemaMismatchOnReopenIsRejectedByBitmapEngines) {
  ScratchDir dir("fail");
  const std::string path = BuildDb(&dir);
  const Schema other = TestSchema(5);  // different record width
  auto reopened = Decibel::Open(path, other, Options());
  // Engines persist their schema/record size; a mismatched reopen must
  // not silently reinterpret bytes.
  EXPECT_FALSE(reopened.ok());
}

TEST_P(FailureTest, ApiMisuseIsStatusNotCrash) {
  ScratchDir dir("fail");
  auto db = Decibel::Open(dir.path(), schema_, Options()).MoveValueUnsafe();
  // Unknown branches and commits.
  EXPECT_FALSE(db->NewScan(ScanSpec::Branch(999)).ok());
  EXPECT_FALSE(db->NewScan(ScanSpec::Commit(999)).ok());
  EXPECT_FALSE(db->engine()->Checkout(999).ok());
  Session s = db->NewSession();
  EXPECT_FALSE(db->Use(&s, 999).ok());
  EXPECT_FALSE(db->Use(&s, "no-such-branch").ok());
  EXPECT_FALSE(db->Checkout(&s, 999).ok());
  EXPECT_FALSE(db->BranchAt("x", 999).ok());
  // Duplicate branch names.
  ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema_, 1, 1)));
  ASSERT_TRUE(db->Branch("dev", &s).ok());
  ASSERT_OK(db->Use(&s, kMasterBranch));
  EXPECT_FALSE(db->Branch("dev", &s).ok());
  // Deleting a key that does not exist: every engine detects it via its
  // pk index, and a subsequent scan is unaffected.
  EXPECT_TRUE(db->DeleteFrom(kMasterBranch, 424242).IsNotFound());
  auto rows = testing_util::CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(rows.count(424242), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, FailureTest,
                         ::testing::Values(EngineType::kTupleFirst,
                                           EngineType::kVersionFirst,
                                           EngineType::kHybrid),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineType::kTupleFirst:
                               return "TupleFirst";
                             case EngineType::kVersionFirst:
                               return "VersionFirst";
                             default:
                               return "Hybrid";
                           }
                         });

}  // namespace
}  // namespace decibel
