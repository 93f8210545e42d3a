/// Unit tests for the relational storage substrate: schemas, records,
/// heap files and the buffer pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "storage/schema.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::ScratchDir;

// ------------------------------------------------------------------ Schema

TEST(SchemaTest, BenchmarkSchemaLayout) {
  // The paper's benchmark records: 250 x 4-byte columns + 8-byte key and
  // a 1-byte header = 1009 bytes (~1 KB records, §4.2).
  const Schema schema = Schema::MakeBenchmark(250, 4);
  EXPECT_EQ(schema.num_columns(), 251u);
  EXPECT_EQ(schema.record_size(), 1u + 8u + 250u * 4u);
  EXPECT_EQ(schema.column(0).name, "pk");
  EXPECT_EQ(schema.column(0).type, FieldType::kInt64);
}

TEST(SchemaTest, RejectsBadSchemas) {
  EXPECT_FALSE(Schema::Make({}).ok());
  EXPECT_FALSE(
      Schema::Make({{"pk", FieldType::kInt32, 0}}).ok());  // key not int64
  EXPECT_FALSE(Schema::Make({{"pk", FieldType::kInt64, 0},
                             {"pk", FieldType::kInt32, 0}})
                   .ok());  // duplicate name
  EXPECT_FALSE(Schema::Make({{"pk", FieldType::kInt64, 0},
                             {"s", FieldType::kString, 0}})
                   .ok());  // string without width
}

TEST(SchemaTest, MixedTypesAndOffsets) {
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"a", FieldType::kInt32, 0},
                              {"b", FieldType::kDouble, 0},
                              {"name", FieldType::kString, 16}});
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->record_size(), 1u + 8u + 4u + 8u + 16u);
  EXPECT_EQ(schema->offset(0), 1u);
  EXPECT_EQ(schema->offset(1), 9u);
  EXPECT_EQ(schema->offset(2), 13u);
  EXPECT_EQ(schema->offset(3), 21u);
  EXPECT_EQ(schema->FindColumn("name"), 3);
  EXPECT_EQ(schema->FindColumn("nope"), -1);
}

TEST(SchemaTest, SerializationRoundTrip) {
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"a", FieldType::kInt32, 0},
                              {"s", FieldType::kString, 12}});
  ASSERT_TRUE(schema.ok());
  std::string blob;
  schema->EncodeTo(&blob);
  Slice in(blob);
  auto restored = Schema::DecodeFrom(&in);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(*restored == *schema);
}

// ------------------------------------------------------------------ Record

TEST(RecordTest, FieldAccess) {
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"a", FieldType::kInt32, 0},
                              {"b", FieldType::kDouble, 0},
                              {"name", FieldType::kString, 8}});
  ASSERT_TRUE(schema.ok());
  Record r(&*schema);
  r.SetPk(12345678901LL);
  r.SetInt32(1, -42);
  r.SetDouble(2, 2.5);
  r.SetString(3, "abc");

  const RecordRef ref = r.ref();
  EXPECT_EQ(ref.pk(), 12345678901LL);
  EXPECT_EQ(ref.GetInt32(1), -42);
  EXPECT_EQ(ref.GetDouble(2), 2.5);
  EXPECT_EQ(ref.GetString(3), "abc");
  EXPECT_FALSE(ref.tombstone());
}

TEST(RecordTest, StringTruncationAndPadding) {
  auto schema = Schema::Make(
      {{"pk", FieldType::kInt64, 0}, {"s", FieldType::kString, 4}});
  ASSERT_TRUE(schema.ok());
  Record r(&*schema);
  r.SetString(1, "toolongvalue");
  EXPECT_EQ(r.ref().GetString(1), "tool");
  r.SetString(1, "x");
  EXPECT_EQ(r.ref().GetString(1), "x");
}

TEST(RecordTest, Tombstone) {
  const Schema schema = Schema::MakeBenchmark(2);
  const Record t = MakeTombstone(&schema, 99);
  EXPECT_TRUE(t.tombstone());
  EXPECT_EQ(t.pk(), 99);
  Record r(&schema);
  r.SetTombstone(true);
  r.SetTombstone(false);
  EXPECT_FALSE(r.tombstone());
}

TEST(RecordTest, ColumnCopyForMerges) {
  const Schema schema = Schema::MakeBenchmark(3);
  Record a(&schema), b(&schema);
  a.SetPk(1);
  a.SetInt32(1, 10);
  b.SetPk(1);
  b.SetInt32(1, 99);
  a.CopyColumnFrom(1, b.ref());
  EXPECT_EQ(a.ref().GetInt32(1), 99);
}

// ---------------------------------------------------------------- HeapFile

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : dir_("heap"), pool_(1 << 20) {}

  std::string MakeRecordBytes(uint32_t record_size, int64_t pk, char fill) {
    std::string r(record_size, fill);
    r[0] = 0;  // flags
    memcpy(r.data() + 1, &pk, sizeof(pk));
    return r;
  }

  ScratchDir dir_;
  BufferPool pool_;
};

TEST_F(HeapFileTest, AppendAndGet) {
  HeapFile::Options opts;
  opts.page_size = 256;  // tiny pages: lots of boundaries
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  for (int64_t i = 0; i < 100; ++i) {
    auto idx = (*file)->Append(MakeRecordBytes(32, i, 'a' + i % 26));
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(*idx, static_cast<uint64_t>(i));
  }
  EXPECT_EQ((*file)->num_records(), 100u);
  std::string buf;
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK((*file)->Get(static_cast<uint64_t>(i), &buf));
    EXPECT_EQ(buf, MakeRecordBytes(32, i, 'a' + i % 26)) << i;
  }
  EXPECT_TRUE((*file)->Get(100, &buf).IsOutOfRange());
}

TEST_F(HeapFileTest, RejectsWrongRecordSize) {
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool_);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append(std::string(31, 'x')).status()
                  .IsInvalidArgument());
  EXPECT_FALSE(
      HeapFile::Create(JoinPath(dir_.path(), "t2.dbhf"), 0, opts, &pool_)
          .ok());
  EXPECT_FALSE(
      HeapFile::Create(JoinPath(dir_.path(), "t3.dbhf"), 300, opts, &pool_)
          .ok());  // record larger than page
}

TEST_F(HeapFileTest, ScannerSeesAllRecordsIncludingTail) {
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool_);
  ASSERT_TRUE(file.ok());
  for (int64_t i = 0; i < 57; ++i) {  // ends mid-page
    ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'z')).ok());
  }
  auto scanner = (*file)->NewScanner();
  Slice rec;
  uint64_t idx;
  uint64_t count = 0;
  while (scanner.Next(&rec, &idx)) {
    int64_t pk;
    memcpy(&pk, rec.data() + 1, sizeof(pk));
    EXPECT_EQ(pk, static_cast<int64_t>(idx));
    ++count;
  }
  ASSERT_OK(scanner.status());
  EXPECT_EQ(count, 57u);
}

TEST_F(HeapFileTest, ReopenRestoresAppendPosition) {
  HeapFile::Options opts;
  opts.page_size = 256;
  const std::string path = JoinPath(dir_.path(), "t.dbhf");
  {
    auto file = HeapFile::Create(path, 32, opts, &pool_);
    ASSERT_TRUE(file.ok());
    for (int64_t i = 0; i < 19; ++i) {
      ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'p')).ok());
    }
    ASSERT_OK((*file)->Flush());
  }
  {
    auto file = HeapFile::Open(path, opts, &pool_);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_EQ((*file)->num_records(), 19u);
    for (int64_t i = 19; i < 40; ++i) {
      ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'p')).ok());
    }
    std::string buf;
    for (int64_t i = 0; i < 40; ++i) {
      ASSERT_OK((*file)->Get(static_cast<uint64_t>(i), &buf));
      EXPECT_EQ(buf, MakeRecordBytes(32, i, 'p')) << i;
    }
  }
}

TEST_F(HeapFileTest, SealForbidsAppends) {
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool_);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, 1, 'a')).ok());
  ASSERT_OK((*file)->Seal());
  EXPECT_TRUE((*file)->sealed());
  EXPECT_TRUE((*file)->Append(MakeRecordBytes(32, 2, 'b')).status()
                  .IsInvalidArgument());
}

/// 32-byte records (flags + pk + a + 19-byte string), matching
/// MakeRecordBytes(32, ...), so the same bytes can be written with or
/// without a schema.
Schema Schema32() {
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"a", FieldType::kInt32, 0},
                              {"s", FieldType::kString, 19}});
  DECIBEL_CHECK(schema.ok() && schema->record_size() == 32);
  return *schema;
}

/// Overwrites \p bytes at \p offset in place (same inode, so an open
/// HeapFile sees the change on its next read).
void Poke(const std::string& path, uint64_t offset, const std::string& bytes) {
  auto w = RandomWriteFile::Open(path);
  ASSERT_TRUE(w.ok());
  ASSERT_OK(w->WriteAt(offset, bytes));
  ASSERT_OK(w->Close());
}

// With 256-byte pages and 32-byte records a page holds 7 records, so 30
// records make 4 sealed pages and a 2-record tail; page p's slot starts
// at byte 64 + 256 * p.

TEST_F(HeapFileTest, CorruptPageDetected) {
  // Schema-less files and files with a schema (whose pool misses read the
  // length their page stats record); the file still open, and reopened
  // the way an engine does it, restoring persisted stats.
  const Schema schema = Schema32();
  for (const Schema* s : {static_cast<const Schema*>(nullptr), &schema}) {
    for (bool reopen : {false, true}) {
      SCOPED_TRACE(std::string(s ? "schema" : "no schema") +
                   (reopen ? ", reopened" : ", still open"));
      HeapFile::Options opts;
      opts.page_size = 256;
      opts.schema = s;
      const std::string path = JoinPath(dir_.path(), "t.dbhf");
      auto file = HeapFile::Create(path, 32, opts, &pool_);
      ASSERT_TRUE(file.ok());
      for (int64_t i = 0; i < 30; ++i) {
        ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'c')).ok());
      }
      ASSERT_OK((*file)->Flush());
      std::string stats;
      (*file)->EncodeStats(&stats);
      if (reopen) file->reset();

      // Corrupt a byte in the middle of the first data page.
      Poke(path, 64 + 100, std::string(1, 'c' ^ 0x7f));

      if (reopen) {
        file = HeapFile::Open(path, opts, &pool_);
        if (!file.ok()) {
          EXPECT_TRUE(file.status().IsCorruption());
          continue;
        }
        if (s != nullptr) ASSERT_OK((*file)->LoadStats(stats));
      }
      // Tail page was fine; reading the corrupt sealed page must fail.
      std::string buf;
      Status st = (*file)->Get(0, &buf);
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      ASSERT_OK((*file)->Get(7, &buf));  // the next page is intact
    }
  }
}

TEST_F(HeapFileTest, StoredLengthDisagreeingWithStatsIsCorruption) {
  // Page 1 rewritten as a self-consistent 6-record page: its count,
  // stored_len and CRC agree with each other, so only the page's stats
  // (7 records, 224 stored bytes) can tell the record it dropped is gone.
  const Schema schema = Schema32();
  for (const Schema* s : {static_cast<const Schema*>(nullptr), &schema}) {
    for (bool reopen : {false, true}) {
      if (reopen && s == nullptr) continue;  // no stats survive a reopen
      SCOPED_TRACE(std::string(s ? "schema" : "no schema") +
                   (reopen ? ", reopened" : ", still open"));
      HeapFile::Options opts;
      opts.page_size = 256;
      opts.schema = s;
      const std::string path = JoinPath(dir_.path(), "t.dbhf");
      auto file = HeapFile::Create(path, 32, opts, &pool_);
      ASSERT_TRUE(file.ok());
      for (int64_t i = 0; i < 30; ++i) {
        ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'd')).ok());
      }
      ASSERT_OK((*file)->Flush());
      std::string stats;
      (*file)->EncodeStats(&stats);
      if (reopen) file->reset();

      std::string payload;
      for (int64_t i = 7; i < 13; ++i) payload += MakeRecordBytes(32, i, 'd');
      std::string header(16, '\0');
      EncodeFixed32(header.data(), 6);
      EncodeFixed32(header.data() + 4, MaskCrc(Crc32(payload)));
      EncodeFixed32(header.data() + 12, static_cast<uint32_t>(payload.size()));
      Poke(path, 64 + 256, header + payload);

      if (reopen) {
        file = HeapFile::Open(path, opts, &pool_);
        ASSERT_TRUE(file.ok()) << file.status().ToString();
        ASSERT_OK((*file)->LoadStats(stats));
      }
      std::string buf;
      Status st = (*file)->Get(7, &buf);
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      EXPECT_NE(st.ToString().find("disagrees with its stats"),
                std::string::npos)
          << st.ToString();
      ASSERT_OK((*file)->Get(0, &buf));
    }
  }
}

TEST_F(HeapFileTest, ReopenedWithoutStatsReadsCompressedPages) {
  // Reopened without its persisted stats, a file reads whole page slots
  // until EnsureStats catches up; pages it seals meanwhile must not be
  // filed under the stats of the pages before them.
  const Schema schema = Schema32();
  HeapFile::Options opts;
  opts.page_size = 1024;  // 31 records a page
  opts.schema = &schema;
  opts.compress_pages = true;
  const std::string path = JoinPath(dir_.path(), "t.dbhf");
  // Records 0-61 repeat one fill byte and compress; records 62 on are
  // random and stay raw, so the two kinds of page differ in stored length.
  auto record = [&](int64_t i) {
    std::string r = MakeRecordBytes(32, i, 'z');
    if (i >= 62) {
      Random rng(static_cast<uint64_t>(i));
      for (size_t b = 9; b < r.size(); ++b) r[b] = static_cast<char>(rng.Next());
    }
    return r;
  };
  auto batch = [&](int64_t first, int64_t n) {
    std::string out;
    for (int64_t i = first; i < first + n; ++i) out += record(i);
    return out;
  };
  {
    auto file = HeapFile::Create(path, 32, opts, &pool_);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->AppendBatch(batch(0, 62), 62).ok());
    auto page = (*file)->PinPage(0);
    ASSERT_TRUE(page.ok());
    ASSERT_LT(page->io_bytes, 16u + 31 * 32) << "page 0 should compress";
    ASSERT_OK((*file)->Flush());
  }
  auto file = HeapFile::Open(path, opts, &pool_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE((*file)->AppendBatch(batch(62, 62), 62).ok());
  for (int pass = 0; pass < 2; ++pass) {
    pool_.EvictAll();
    std::string buf;
    for (int64_t i = 0; i < 124; ++i) {
      const Status st = (*file)->Get(static_cast<uint64_t>(i), &buf);
      ASSERT_TRUE(st.ok()) << i << ": " << st.ToString();
      EXPECT_EQ(buf, record(i)) << i;
    }
    ASSERT_OK((*file)->EnsureStats());  // the second pass reads by stats
  }
}

TEST_F(HeapFileTest, CompressedMissesRecycleTheStoredBytesFrame) {
  // A compressed page decodes into a pool frame; the frame its stored
  // bytes were read into parks as the spare, and the next miss reads into
  // that same buffer instead of allocating one.
  const Schema schema = Schema32();
  HeapFile::Options opts;
  opts.page_size = 1024;  // 31 records a page
  opts.schema = &schema;
  opts.compress_pages = true;
  BufferPool pool(1 << 20);
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool);
  ASSERT_TRUE(file.ok());
  std::string records;
  for (int64_t i = 0; i < 4 * 31; ++i) records += MakeRecordBytes(32, i, 'z');
  ASSERT_TRUE((*file)->AppendBatch(records, 4 * 31).ok());
  ASSERT_OK((*file)->Flush());
  pool.EvictAll();

  std::string buf;
  ASSERT_OK((*file)->Get(0, &buf));  // page 0: a compressed miss
  EXPECT_EQ(buf, MakeRecordBytes(32, 0, 'z'));
  const char* stored_frame = nullptr;
  {
    const std::shared_ptr<std::string> spare = pool.NewFrame();
    ASSERT_GT(spare->capacity(), 16u) << "no stored-bytes frame was parked";
    stored_frame = spare->data();
  }  // back to the spare slot
  ASSERT_OK((*file)->Get(31, &buf));  // page 1: the second miss
  EXPECT_EQ(buf, MakeRecordBytes(32, 31, 'z'));
  EXPECT_EQ(pool.NewFrame()->data(), stored_frame);
}

TEST_F(HeapFileTest, TruncatedMidPageIsAnError) {
  const Schema schema = Schema32();
  for (const Schema* s : {static_cast<const Schema*>(nullptr), &schema}) {
    SCOPED_TRACE(s ? "schema" : "no schema");
    HeapFile::Options opts;
    opts.page_size = 256;
    opts.schema = s;
    const std::string path = JoinPath(dir_.path(), "t.dbhf");
    BufferPool pool(1 << 20);
    auto file = HeapFile::Create(path, 32, opts, &pool);
    ASSERT_TRUE(file.ok());
    for (int64_t i = 0; i < 30; ++i) {
      ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 't')).ok());
    }
    ASSERT_OK((*file)->Flush());

    // Cut the file in the middle of page 1's payload under the open file.
    ASSERT_OK(TruncateFile(path, 64 + 256 + 100));
    std::string buf;
    ASSERT_OK((*file)->Get(0, &buf));
    EXPECT_EQ(buf, MakeRecordBytes(32, 0, 't'));
    EXPECT_EQ(pool.resident_bytes(), 256u);
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_FALSE((*file)->Get(7, &buf).ok());
      EXPECT_FALSE((*file)->PinPage(1).ok());
    }
    EXPECT_EQ(pool.resident_bytes(), 256u);  // no short page was cached
    auto scanner = (*file)->NewScanner();
    Slice rec;
    uint64_t scanned = 0;
    while (scanner.Next(&rec, nullptr)) ++scanned;
    EXPECT_EQ(scanned, 7u);
    EXPECT_FALSE(scanner.status().ok());

    // Reopening the truncated file fails cleanly.
    file->reset();
    auto reopened = HeapFile::Open(path, opts, &pool);
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsCorruption())
        << reopened.status().ToString();
  }
}

// A partial tail is stored as its 16-byte page header plus the used
// bytes; full pages keep their whole 256-byte slot. 10 records make one
// full page and a 3-record tail: 64 + 256 + 16 + 3 * 32 = 432 bytes.
constexpr uint64_t kTenRecordBytes = 64 + 256 + 16 + 3 * 32;

uint64_t FileLength(const std::string& path) {
  auto size = FileSize(path);
  DECIBEL_CHECK(size.ok());
  return *size;
}

TEST_F(HeapFileTest, ShortTailSlotReopensAtAppendPosition) {
  HeapFile::Options opts;
  opts.page_size = 256;
  const std::string path = JoinPath(dir_.path(), "t.dbhf");
  {
    auto file = HeapFile::Create(path, 32, opts, &pool_);
    ASSERT_TRUE(file.ok());
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 's')).ok());
    }
    ASSERT_OK((*file)->Flush());
    EXPECT_EQ(FileLength(path), kTenRecordBytes);
    EXPECT_EQ((*file)->SizeBytes(), kTenRecordBytes);
  }
  auto file = HeapFile::Open(path, opts, &pool_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->num_records(), 10u);
  EXPECT_EQ((*file)->SizeBytes(), kTenRecordBytes);
  // The tail grows in place; then it fills, takes a whole slot, and the
  // next tail starts one slot further on.
  for (int64_t i = 10; i < 16; ++i) {
    ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 's')).ok());
    ASSERT_OK((*file)->Flush());
    EXPECT_EQ(FileLength(path), (*file)->SizeBytes()) << i;
  }
  EXPECT_EQ(FileLength(path), 64u + 2 * 256 + 16 + 2 * 32);
  // Sealing (a hybrid fork) leaves the partial tail unpadded too.
  ASSERT_OK((*file)->Seal());
  EXPECT_EQ(FileLength(path), (*file)->SizeBytes());
  file->reset();
  file = HeapFile::Open(path, opts, &pool_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ((*file)->num_records(), 16u);
  pool_.EvictAll();
  std::string buf;
  for (int64_t i = 0; i < 16; ++i) {
    ASSERT_OK((*file)->Get(static_cast<uint64_t>(i), &buf));
    EXPECT_EQ(buf, MakeRecordBytes(32, i, 's')) << i;
  }
}

TEST_F(HeapFileTest, FinalSlotCutInsideStoredBytesIsCorruption) {
  const Schema schema = Schema32();
  for (const Schema* s : {static_cast<const Schema*>(nullptr), &schema}) {
    SCOPED_TRACE(s ? "schema" : "no schema");
    HeapFile::Options opts;
    opts.page_size = 256;
    opts.schema = s;
    const std::string path = JoinPath(dir_.path(), "t.dbhf");
    std::string whole;
    {
      auto file = HeapFile::Create(path, 32, opts, &pool_);
      ASSERT_TRUE(file.ok());
      for (int64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'c')).ok());
      }
      ASSERT_OK((*file)->Flush());
      ASSERT_OK_AND_ASSIGN(whole, ReadFileToString(path));
    }
    ASSERT_EQ(whole.size(), kTenRecordBytes);
    // Every cut inside the tail slot — in its header or its records — is
    // a short final slot that no longer holds what its header promises.
    for (uint64_t cut = 64 + 256 + 1; cut < kTenRecordBytes; ++cut) {
      ASSERT_OK(WriteStringToFile(path, whole.substr(0, cut)));
      auto reopened = HeapFile::Open(path, opts, &pool_);
      ASSERT_FALSE(reopened.ok()) << cut;
      EXPECT_TRUE(reopened.status().IsCorruption())
          << cut << ": " << reopened.status().ToString();
    }
    // A full page cut short of its slot is corruption as well.
    ASSERT_OK(WriteStringToFile(path, whole.substr(0, 64 + 255)));
    auto cut_full = HeapFile::Open(path, opts, &pool_);
    ASSERT_FALSE(cut_full.ok());
    EXPECT_TRUE(cut_full.status().IsCorruption())
        << cut_full.status().ToString();
    // Cut exactly at the slot boundary, the file is one sealed page.
    ASSERT_OK(WriteStringToFile(path, whole.substr(0, 64 + 256)));
    auto at_boundary = HeapFile::Open(path, opts, &pool_);
    ASSERT_TRUE(at_boundary.ok()) << at_boundary.status().ToString();
    EXPECT_EQ((*at_boundary)->num_records(), 7u);
  }
}

TEST_F(HeapFileTest, OpenAtCheckpointRollsAGrownTailBack) {
  HeapFile::Options opts;
  opts.page_size = 256;
  const std::string path = JoinPath(dir_.path(), "t.dbhf");
  // After the checkpoint the tail grows in place (+2 records), or fills,
  // seals and starts another page (+9 records).
  for (int64_t extra : {2, 9}) {
    SCOPED_TRACE(extra);
    HeapFile::CheckpointState state;
    {
      auto file = HeapFile::Create(path, 32, opts, &pool_);
      ASSERT_TRUE(file.ok());
      for (int64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'k')).ok());
      }
      ASSERT_OK((*file)->Flush());
      state = (*file)->GetCheckpointState();
      for (int64_t i = 10; i < 10 + extra; ++i) {
        ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'x')).ok());
      }
      ASSERT_OK((*file)->Flush());
      ASSERT_GT(FileLength(path), kTenRecordBytes);
    }
    auto file = HeapFile::OpenAtCheckpoint(path, opts, &pool_, state);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_EQ((*file)->num_records(), 10u);
    EXPECT_EQ(FileLength(path), kTenRecordBytes);
    EXPECT_EQ((*file)->SizeBytes(), kTenRecordBytes);
    ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, 10, 'n')).ok());
    ASSERT_OK((*file)->Flush());
    file->reset();
    file = HeapFile::Open(path, opts, &pool_);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_EQ((*file)->num_records(), 11u);
    std::string buf;
    for (int64_t i = 0; i < 11; ++i) {
      ASSERT_OK((*file)->Get(static_cast<uint64_t>(i), &buf));
      EXPECT_EQ(buf, MakeRecordBytes(32, i, i < 10 ? 'k' : 'n')) << i;
    }
    // A file cut inside the checkpointed tail cannot be rolled back.
    file->reset();
    ASSERT_OK(TruncateFile(path, kTenRecordBytes - 1));
    auto cut = HeapFile::OpenAtCheckpoint(path, opts, &pool_, state);
    ASSERT_FALSE(cut.ok());
    EXPECT_TRUE(cut.status().IsCorruption()) << cut.status().ToString();
  }
}

TEST_F(HeapFileTest, TailPinsShareAndSurviveGrowthAndSeal) {
  HeapFile::Options opts;
  opts.page_size = 4096;  // 127 records of 32 bytes
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool_);
  ASSERT_TRUE(file.ok());
  HeapFile* f = file->get();
  const uint64_t rpp = f->records_per_page();
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(f->Append(MakeRecordBytes(32, i, 'p')).ok());
  }
  auto first = f->PinPage(0);
  auto second = f->PinPage(0);
  bool no_matches = true;
  auto counted = f->PinPageCounted(0, nullptr, &no_matches);
  ASSERT_TRUE(first.ok() && second.ok() && counted.ok());
  EXPECT_FALSE(no_matches);
  // An unchanged tail pins the same bytes every time: no copy.
  EXPECT_EQ(first->payload, second->payload);
  EXPECT_EQ(counted->payload, first->payload);
  EXPECT_EQ(first->count, 3u);
  EXPECT_EQ(first->io_bytes, 3u * 32);
  auto scanner = f->NewScanner();
  Slice rec;
  uint64_t idx;
  ASSERT_TRUE(scanner.Next(&rec, &idx));
  EXPECT_EQ(rec.data(), first->payload);
  const std::string pinned(first->payload, 3 * 32);

  // Grow the tail past any capacity it had, seal the page, start the next.
  for (uint64_t i = 3; i < rpp + 5; ++i) {
    ASSERT_TRUE(
        f->Append(MakeRecordBytes(32, static_cast<int64_t>(i), 'q')).ok());
  }
  auto sealed = f->PinPage(0);
  auto next_tail = f->PinPage(1);
  ASSERT_TRUE(sealed.ok() && next_tail.ok());
  EXPECT_EQ(sealed->count, rpp);
  EXPECT_EQ(next_tail->count, 5u);

  // The first pins still read exactly what they saw.
  for (const auto* pin : {&first.value(), &second.value(), &counted.value()}) {
    EXPECT_EQ(std::string(pin->payload, 3 * 32), pinned);
  }
  EXPECT_EQ(std::string(sealed->payload, 3 * 32), pinned);
  for (int64_t i = 1; i < 3; ++i) {
    ASSERT_TRUE(scanner.Next(&rec, &idx));
    EXPECT_EQ(idx, static_cast<uint64_t>(i));
    EXPECT_EQ(rec.ToString(), MakeRecordBytes(32, i, 'p'));
  }
  EXPECT_FALSE(scanner.Next(&rec, &idx));  // its end was fixed at 3
  ASSERT_OK(scanner.status());
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(std::string(next_tail->payload + i * 32, 32),
              MakeRecordBytes(32, static_cast<int64_t>(rpp + i), 'q'));
  }
}

// Record \p index of the race test: its index, then a fill that changes
// with it, so a torn or stale read shows in any byte.
std::string RaceRecord(uint64_t index) {
  std::string r(32, static_cast<char>('A' + index % 53));
  memcpy(r.data(), &index, sizeof(index));
  return r;
}

TEST(HeapFileRaceTest, PinnedTailsStableUnderAppendAndSeal) {
  // One appender grows, flushes and seals tail pages while readers pin
  // the newest page (PinPage, PinPageCounted, Scanner) and check every
  // record they see, twice: once at once, and again after the appender
  // had time to move on. Between pins a reader pauses without touching
  // the file, so the appender often acts right after a release: a tail
  // reused on a relaxed use_count() then races the reader's last reads,
  // which TSan (CI runs this test under it) reports.
  ScratchDir dir("heap_race");
  BufferPool pool(4 << 10);
  HeapFile::Options opts;
  opts.page_size = 256;  // 7 records per page
  auto file = HeapFile::Create(JoinPath(dir.path(), "t.dbhf"), 32, opts,
                               &pool);
  ASSERT_TRUE(file.ok());
  HeapFile* f = file->get();
  const uint64_t rpp = f->records_per_page();
  constexpr uint64_t kRecords = 12000;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> pins{0};

  std::thread appender([&] {
    Random rng(7);
    uint64_t n = 0;
    for (int batches = 0; n < kRecords; ++batches) {
      const uint64_t take = std::min<uint64_t>(1 + rng.Uniform(2 * rpp),
                                               kRecords - n);
      std::string batch;
      for (uint64_t i = 0; i < take; ++i) batch += RaceRecord(n + i);
      const bool ok = take == 1 ? f->Append(batch).ok()
                                : f->AppendBatch(batch, take).ok();
      if (!ok || (rng.Uniform(8) == 0 && !f->Flush().ok())) failed = true;
      n += take;
      // The first batches wait for the readers' pins to advance: unpaced,
      // the appender can finish before any reader wakes from its first
      // sleep, and no pin races an append at all.
      if (batches < 64) {
        const uint64_t seen = pins.load();
        while (pins.load() == seen && !failed.load()) {
          std::this_thread::yield();
        }
      }
    }
    done = true;
  });

  auto check = [&](const char* payload, uint64_t first, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      if (std::string(payload + i * 32, 32) != RaceRecord(first + i)) {
        failed = true;
        return;
      }
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!done.load() && !failed.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        const uint64_t n = f->num_records();
        if (n == 0) continue;
        const uint64_t page_no = (n - 1) / rpp;
        const uint64_t first = page_no * rpp;
        if (t == 2) {
          auto scanner = f->NewScanner(first, n);
          Slice rec;
          uint64_t idx;
          std::vector<Slice> seen;
          while (scanner.Next(&rec, &idx)) seen.push_back(rec);
          if (!scanner.status().ok() || seen.size() != n - first) {
            failed = true;
            break;
          }
          std::this_thread::yield();
          for (uint64_t i = 0; i < seen.size(); ++i) {
            if (seen[i].ToString() != RaceRecord(first + i)) failed = true;
          }
        } else {
          bool no_matches = false;
          auto page = t == 0 ? f->PinPage(page_no)
                             : f->PinPageCounted(page_no, nullptr, &no_matches);
          if (!page.ok() || no_matches || page->count < n - first) {
            failed = true;
            break;
          }
          check(page->payload, first, page->count);
          std::this_thread::yield();
          check(page->payload, first, page->count);
        }
        pins.fetch_add(1);
      }
    });
  }
  appender.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(pins.load(), 0u);
  ASSERT_EQ(f->num_records(), kRecords);
  std::string buf;
  for (uint64_t i = 0; i < kRecords; i += 97) {
    ASSERT_OK(f->Get(i, &buf));
    EXPECT_EQ(buf, RaceRecord(i));
  }
}

// -------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, HitAndMissAccounting) {
  ScratchDir dir("pool");
  BufferPool pool(1 << 20);
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir.path(), "t.dbhf"), 32, opts,
                               &pool);
  ASSERT_TRUE(file.ok());
  std::string rec(32, 'r');
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*file)->Append(rec).ok());
  }
  std::string buf;
  ASSERT_OK((*file)->Get(0, &buf));
  const uint64_t misses_after_first = pool.misses();
  ASSERT_OK((*file)->Get(1, &buf));  // same page -> hit
  EXPECT_EQ(pool.misses(), misses_after_first);
  EXPECT_GE(pool.hits(), 1u);
}

TEST(BufferPoolTest, EvictionBoundsMemory) {
  ScratchDir dir("pool");
  BufferPool pool(1024);  // 4 tiny pages
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir.path(), "t.dbhf"), 32, opts,
                               &pool);
  ASSERT_TRUE(file.ok());
  std::string rec(32, 'e');
  for (int i = 0; i < 7 * 64; ++i) {
    ASSERT_TRUE((*file)->Append(rec).ok());
  }
  std::string buf;
  for (uint64_t i = 0; i < (*file)->num_records(); i += 7) {
    ASSERT_OK((*file)->Get(i, &buf));
  }
  EXPECT_LE(pool.resident_bytes(), 1024u);
  pool.EvictAll();
  EXPECT_EQ(pool.resident_bytes(), 0u);
}

TEST(BufferPoolTest, EvictedPagesStayValidForHolders) {
  ScratchDir dir("pool");
  BufferPool pool(300);  // roughly one page
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir.path(), "t.dbhf"), 32, opts,
                               &pool);
  ASSERT_TRUE(file.ok());
  std::string rec(32, 'v');
  for (int i = 0; i < 3 * 64; ++i) {
    ASSERT_TRUE((*file)->Append(rec).ok());
  }
  auto pinned = (*file)->PinPage(0);
  ASSERT_TRUE(pinned.ok());
  // Force eviction of page 0 by touching others.
  std::string buf;
  ASSERT_OK((*file)->Get(64, &buf));
  ASSERT_OK((*file)->Get(128, &buf));
  // The pinned view is still readable (shared ownership).
  EXPECT_EQ(pinned->payload[0], 'v');
}

// Pages for the policy tests, served straight to the pool: every byte of
// page p of file f is PageByte(f, p), so a reader can check what it got.
constexpr uint64_t kTestPage = 256;

char PageByte(uint64_t file_id, uint64_t page_no) {
  return static_cast<char>('a' + (file_id * 7 + page_no) % 26);
}

class PatternSource : public PageSource {
 public:
  explicit PatternSource(uint64_t file_id) : file_id_(file_id) {}
  Status ReadPageFromDisk(uint64_t page_no, std::string* out) override {
    out->assign(kTestPage, PageByte(file_id_, page_no));
    return Status::OK();
  }

 private:
  uint64_t file_id_;
};

TEST(BufferPoolTest, HotPageSurvivesAOneShotScan) {
  BufferPool pool(8 * kTestPage);
  PatternSource source(1);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pool.GetPage(1, 0, &source).ok());
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 2u);
  // A scan over twice the capacity, each page touched once.
  for (uint64_t p = 100; p < 116; ++p) {
    ASSERT_TRUE(pool.GetPage(1, p, &source).ok());
  }
  const uint64_t misses = pool.misses();
  ASSERT_TRUE(pool.GetPage(1, 0, &source).ok());
  EXPECT_EQ(pool.misses(), misses) << "the scan evicted the hot page";
}

TEST(BufferPoolTest, LoopLongerThanPoolHitsOnSecondLap) {
  // A loop over capacity + 4 pages; the first 6 pages hold two records
  // each, read one page access apiece, the rest one record. Plain LRU
  // evicts every page before the loop returns to it, so each lap misses
  // all 12 pages; the protected list keeps the twice-read pages.
  constexpr uint64_t kCapacityPages = 8;
  constexpr uint64_t kLoopPages = kCapacityPages + 4;
  BufferPool pool(kCapacityPages * kTestPage);
  PatternSource source(1);
  auto lap = [&] {
    const uint64_t misses = pool.misses();
    for (uint64_t p = 0; p < kLoopPages; ++p) {
      for (int r = 0; r < (p < 6 ? 2 : 1); ++r) {
        auto page = pool.GetPage(1, p, &source);
        EXPECT_TRUE(page.ok());
      }
    }
    return pool.misses() - misses;
  };
  EXPECT_EQ(lap(), kLoopPages);
  const uint64_t second = lap();
  EXPECT_LT(second, kLoopPages) << "no page of the loop survived a lap";
  EXPECT_EQ(lap(), second);
}

TEST(BufferPoolTest, FrameReusedOnlyAfterLastRefDrops) {
  BufferPool pool(4 * kTestPage);
  PatternSource source(1);
  PageRef held = pool.GetPage(1, 0, &source).MoveValueUnsafe();
  const char* held_data = held->data();
  // Page 0 is evicted early in this loop, and the frames of other
  // evicted pages recycle through it; the held page never changes.
  for (uint64_t p = 1; p <= 64; ++p) {
    auto page = pool.GetPage(1, p, &source);
    ASSERT_TRUE(page.ok());
    EXPECT_NE(page.value()->data(), held_data) << p;
    EXPECT_EQ(*page.value(), std::string(kTestPage, PageByte(1, p))) << p;
    ASSERT_EQ(*held, std::string(kTestPage, PageByte(1, 0))) << p;
  }
  ASSERT_EQ(pool.Peek(1, 0), nullptr) << "page 0 should have been evicted";
  held.reset();
  // Its last reference gone, page 0's buffer is the next load's frame.
  auto next = pool.GetPage(1, 1000, &source);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value()->data(), held_data);
  EXPECT_EQ(*next.value(), std::string(kTestPage, PageByte(1, 1000)));
}

TEST(BufferPoolTest, EvictionKeepsResidentBytesExactAcrossBothLists) {
  constexpr uint64_t kCapacity = 8 * kTestPage;
  BufferPool pool(kCapacity);
  PatternSource source(1);
  // Every page ever cached, by (file, page), with its size.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> sizes;
  auto resident_of = [&](uint64_t f) {  // Peek's hit only reorders
    uint64_t bytes = 0;
    for (const auto& [key, size] : sizes) {
      if (key.first == f && pool.Peek(f, key.second) != nullptr) {
        bytes += size;
      }
    }
    return bytes;
  };
  // Pages of mixed sizes from two files, half of them hit (protected).
  for (uint64_t p = 0; p < 10; ++p) {
    for (uint64_t f = 1; f <= 2; ++f) {
      const uint64_t size = kTestPage / 2 + p * 16;
      sizes[{f, p}] = size;
      pool.Insert(f, p, std::make_shared<std::string>(size, PageByte(f, p)));
      if (p % 2 == 0) {
        ASSERT_NE(pool.Peek(f, p), nullptr);
      }
      ASSERT_LE(pool.resident_bytes(), kCapacity);
    }
  }
  ASSERT_EQ(pool.resident_bytes(), resident_of(1) + resident_of(2));
  ASSERT_GT(resident_of(1), 0u);
  pool.EvictFile(1);
  EXPECT_EQ(resident_of(1), 0u);
  EXPECT_EQ(pool.resident_bytes(), resident_of(2));
  // Reload file 1 past capacity at full page size, hitting every third
  // page, then drop file 2 and finally everything.
  for (uint64_t p = 0; p < 20; ++p) {
    sizes[{1, p}] = kTestPage;
    ASSERT_TRUE(pool.GetPage(1, p, &source).ok());
    if (p % 3 == 0) {
      ASSERT_TRUE(pool.GetPage(1, p, &source).ok());
    }
    ASSERT_LE(pool.resident_bytes(), kCapacity);
  }
  EXPECT_EQ(pool.resident_bytes(), resident_of(1) + resident_of(2));
  pool.EvictFile(2);
  EXPECT_EQ(resident_of(2), 0u);
  EXPECT_EQ(pool.resident_bytes(), resident_of(1));
  pool.EvictAll();
  EXPECT_EQ(pool.resident_bytes(), 0u);
  EXPECT_EQ(resident_of(1), 0u);
  // The emptied lists take pages again.
  ASSERT_TRUE(pool.GetPage(1, 0, &source).ok());
  EXPECT_EQ(pool.resident_bytes(), kTestPage);
}

TEST(BufferPoolTest, ConcurrentReadersInsertersAndEvictors) {
  // 4 threads against a pool a quarter the size of the page set; run
  // under TSan in CI. Every page a thread gets must carry its own bytes.
  constexpr uint64_t kCapacity = 8 * kTestPage;
  constexpr uint64_t kPages = 32;
  BufferPool pool(kCapacity);
  std::atomic<bool> failed{false};
  auto check = [&](const PageRef& page, uint64_t f, uint64_t p) {
    if (page == nullptr) return;
    if (page->size() != kTestPage ||
        page->find_first_not_of(PageByte(f, p)) != std::string::npos) {
      failed = true;
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Random rng(t + 1);
      PatternSource sources[2] = {PatternSource(1), PatternSource(2)};
      for (int i = 0; i < 2000; ++i) {
        const uint64_t f = 1 + rng.Uniform(2);
        const uint64_t p = rng.Uniform(kPages);
        switch (t) {
          case 0:
          case 1: {
            auto page = pool.GetPage(f, p, &sources[f - 1]);
            if (!page.ok()) {
              failed = true;
            } else {
              check(page.value(), f, p);
            }
            break;
          }
          case 2:
            check(pool.Peek(f, p), f, p);
            pool.Insert(f, p, std::make_shared<std::string>(kTestPage,
                                                            PageByte(f, p)));
            break;
          default:
            if (i % 50 == 0) pool.EvictFile(f);
            else check(pool.Peek(f, p), f, p);
            break;
        }
        if (pool.resident_bytes() > kCapacity) failed = true;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_LE(pool.resident_bytes(), kCapacity);
  EXPECT_GT(pool.hits(), 0u);
  EXPECT_GT(pool.misses(), 0u);
}

}  // namespace
}  // namespace decibel
