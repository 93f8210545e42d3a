/// Durability and crash-recovery tests: the io.cc crash-safety helpers,
/// WAL framing and torn-tail handling, manifest generations and fallback,
/// and full Decibel recovery — clean reopen, crash-consistent reopen,
/// torn WAL tails, missing segments, corrupt manifests, and a fork/_exit
/// child killed mid-load whose acknowledged commits the parent verifies —
/// across all three storage engines.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/io.h"
#include "core/decibel.h"
#include "test_util.h"
#include "wal/manifest.h"
#include "wal/wal_format.h"
#include "wal/wal_reader.h"
#include "wal/wal_writer.h"

namespace decibel {
namespace {

using testing_util::CollectAll;
using testing_util::CollectBranch;
using testing_util::CollectBranchAll;
using testing_util::MakeRecord;
using testing_util::ScratchDir;
using testing_util::TestSchema;

// --------------------------------------------------------------- helpers

/// Recursively copies \p src into \p dst through ordinary reads: the copy
/// observes the page-cache view of every file, i.e. exactly the bytes a
/// crashed process would leave behind under SyncMode::kFlush (userspace
/// buffers lost, flushed data retained).
Status CopyDirRecursive(const std::string& src, const std::string& dst) {
  DECIBEL_RETURN_NOT_OK(CreateDir(dst));
  DECIBEL_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(src));
  for (const std::string& name : names) {
    const std::string from = JoinPath(src, name);
    const std::string to = JoinPath(dst, name);
    struct ::stat st;
    if (::stat(from.c_str(), &st) != 0) {
      return Status::IOError("stat " + from);
    }
    if (S_ISDIR(st.st_mode)) {
      DECIBEL_RETURN_NOT_OK(CopyDirRecursive(from, to));
    } else {
      DECIBEL_ASSIGN_OR_RETURN(std::string data, ReadFileToString(from));
      DECIBEL_RETURN_NOT_OK(WriteStringToFile(to, data));
    }
  }
  return Status::OK();
}

/// Sorted *.wal segment paths under <dir>/wal.
std::vector<std::string> WalSegments(const std::string& dir) {
  std::vector<std::string> out;
  auto names = ListDir(JoinPath(dir, "wal"));
  if (!names.ok()) return out;
  for (const auto& name : *names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".wal") == 0) {
      out.push_back(JoinPath(JoinPath(dir, "wal"), name));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Frame start offsets within one WAL segment (parsed from the length
/// prefixes), plus the clean end of the final frame.
std::vector<uint64_t> FrameOffsets(const std::string& data, uint64_t* end) {
  std::vector<uint64_t> offsets;
  uint64_t pos = 0;
  while (pos + wal::kFrameHeaderSize <= data.size()) {
    const uint32_t len = DecodeFixed32(data.data() + pos);
    if (len == 0 || pos + wal::kFrameHeaderSize + len > data.size()) break;
    offsets.push_back(pos);
    pos += wal::kFrameHeaderSize + len;
  }
  *end = pos;
  return offsets;
}

void FlipByte(const std::string& path, uint64_t offset) {
  auto data = ReadFileToString(path);
  ASSERT_OK(data.status());
  ASSERT_LT(offset, data->size());
  (*data)[offset] ^= 0x5a;
  ASSERT_OK(WriteStringToFile(path, *data));
}

DecibelOptions DurableOptions(EngineType engine,
                              wal::SyncMode mode = wal::SyncMode::kFlush) {
  DecibelOptions options;
  options.engine = engine;
  options.sync_mode = mode;
  options.page_size = 1 << 16;
  return options;
}

// ------------------------------------------------------- io.cc helpers

TEST(DurableIoTest, AtomicWriteFileReplacesContents) {
  ScratchDir dir("io_atomic");
  const std::string path = JoinPath(dir.path(), "blob");
  ASSERT_OK(AtomicWriteFile(path, "first"));
  ASSERT_OK_AND_ASSIGN(std::string got, ReadFileToString(path));
  EXPECT_EQ(got, "first");
  ASSERT_OK(AtomicWriteFile(path, "second", /*sync=*/true));
  ASSERT_OK_AND_ASSIGN(got, ReadFileToString(path));
  EXPECT_EQ(got, "second");
  // The temporary sibling must not linger.
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, ListDir(dir.path()));
  EXPECT_EQ(names.size(), 1u);
}

TEST(DurableIoTest, TruncateFileShrinksAndGrows) {
  ScratchDir dir("io_trunc");
  const std::string path = JoinPath(dir.path(), "f");
  ASSERT_OK(WriteStringToFile(path, "abcdefgh"));
  ASSERT_OK(TruncateFile(path, 3));
  ASSERT_OK_AND_ASSIGN(std::string got, ReadFileToString(path));
  EXPECT_EQ(got, "abc");
  ASSERT_OK(TruncateFile(path, 5));
  ASSERT_OK_AND_ASSIGN(uint64_t size, FileSize(path));
  EXPECT_EQ(size, 5u);
}

TEST(DurableIoTest, RenameFileSyncedMovesContents) {
  ScratchDir dir("io_rename");
  const std::string from = JoinPath(dir.path(), "from");
  const std::string to = JoinPath(dir.path(), "to");
  ASSERT_OK(WriteStringToFile(from, "payload"));
  ASSERT_OK(RenameFile(from, to, /*sync=*/true));
  EXPECT_FALSE(FileExists(from));
  ASSERT_OK_AND_ASSIGN(std::string got, ReadFileToString(to));
  EXPECT_EQ(got, "payload");
}

TEST(DurableIoTest, SyncDirAndParentDir) {
  ScratchDir dir("io_syncdir");
  ASSERT_OK(SyncDir(dir.path()));
  EXPECT_TRUE(SyncDir(JoinPath(dir.path(), "missing")).IsIOError());
  EXPECT_EQ(ParentDir(JoinPath(dir.path(), "leaf")), dir.path());
  EXPECT_EQ(ParentDir("plain"), ".");
}

TEST(DurableIoTest, SyncDataPersistsFlushedBytes) {
  ScratchDir dir("io_syncdata");
  const std::string path = JoinPath(dir.path(), "f");
  ASSERT_OK_AND_ASSIGN(WritableFile f, WritableFile::Open(path));
  ASSERT_OK(f.Append("hello"));
  ASSERT_OK(f.Flush());
  ASSERT_OK(f.SyncData());
  ASSERT_OK_AND_ASSIGN(std::string got, ReadFileToString(path));
  EXPECT_EQ(got, "hello");
  ASSERT_OK(f.Close());
}

// ------------------------------------------------- options validation

TEST(DecibelOptionsTest, RejectsInvalidOptions) {
  ScratchDir dir("opts");
  const Schema schema = TestSchema();

  DecibelOptions tiny_page;
  tiny_page.page_size = 128;
  EXPECT_TRUE(Decibel::Open(dir.path(), schema, tiny_page)
                  .status()
                  .IsInvalidArgument());

  DecibelOptions huge_page;
  huge_page.page_size = 3ull << 30;
  EXPECT_TRUE(Decibel::Open(dir.path(), schema, huge_page)
                  .status()
                  .IsInvalidArgument());

  DecibelOptions zero_segment;
  zero_segment.wal_segment_bytes = 0;
  EXPECT_TRUE(Decibel::Open(dir.path(), schema, zero_segment)
                  .status()
                  .IsInvalidArgument());

  DecibelOptions zero_interval;
  zero_interval.checkpoint_interval_bytes = 0;
  EXPECT_TRUE(Decibel::Open(dir.path(), schema, zero_interval)
                  .status()
                  .IsInvalidArgument());

  DecibelOptions mismatched_dir;
  mismatched_dir.data_dir = dir.path() + "_elsewhere";
  EXPECT_TRUE(Decibel::Open(dir.path(), schema, mismatched_dir)
                  .status()
                  .IsInvalidArgument());
}

TEST(DecibelOptionsTest, DurableReopenValidatesSchemaAndEngine) {
  ScratchDir dir("opts_reopen");
  auto options = DurableOptions(EngineType::kHybrid);
  {
    ASSERT_OK_AND_ASSIGN(auto db,
                         Decibel::Open(dir.path(), TestSchema(3), options));
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), 1, 10)));
  }
  // Wrong schema shape.
  EXPECT_TRUE(Decibel::Open(dir.path(), TestSchema(5), options)
                  .status()
                  .IsInvalidArgument());
  // Wrong engine.
  auto wrong_engine = DurableOptions(EngineType::kTupleFirst);
  EXPECT_TRUE(Decibel::Open(dir.path(), TestSchema(3), wrong_engine)
                  .status()
                  .IsInvalidArgument());
  // The schema-less overload needs a manifest.
  ScratchDir empty("opts_empty");
  EXPECT_TRUE(
      Decibel::Open(empty.path(), DecibelOptions{}).status().IsNotFound());
}

// ------------------------------------------------------------ WAL layer

TEST(WalFormatTest, BodyRoundTrips) {
  const Schema schema = TestSchema();
  WriteBatch batch(&schema);
  batch.Insert(MakeRecord(schema, 1, 11));
  batch.Update(MakeRecord(schema, 2, 22));
  batch.Delete(3);

  std::string body;
  wal::EncodeBatchBody(&body, /*branch=*/7, batch);
  WriteBatch decoded(&schema);
  BranchId branch = kInvalidBranch;
  ASSERT_OK(wal::DecodeBatchBody(Slice(body), &branch, &decoded));
  EXPECT_EQ(branch, 7u);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded.ops()[0].kind, WriteBatch::OpKind::kInsert);
  EXPECT_EQ(decoded.ops()[1].kind, WriteBatch::OpKind::kUpdate);
  EXPECT_EQ(decoded.ops()[2].kind, WriteBatch::OpKind::kDelete);
  EXPECT_EQ(decoded.ops()[2].pk, 3);
  EXPECT_EQ(decoded.RecordAt(decoded.ops()[0]).pk(), 1);

  wal::CommitBody commit{5, 42, {40, 41}};
  body.clear();
  wal::EncodeCommitBody(&body, commit);
  wal::CommitBody commit_out;
  ASSERT_OK(wal::DecodeCommitBody(Slice(body), &commit_out));
  EXPECT_EQ(commit_out.branch, 5u);
  EXPECT_EQ(commit_out.commit, 42u);
  EXPECT_EQ(commit_out.parents, (std::vector<CommitId>{40, 41}));

  wal::BranchBody br{9, "dev", 17, 2, false, 19};
  body.clear();
  wal::EncodeBranchBody(&body, br);
  wal::BranchBody br_out;
  ASSERT_OK(wal::DecodeBranchBody(Slice(body), &br_out));
  EXPECT_EQ(br_out.child, 9u);
  EXPECT_EQ(br_out.name, "dev");
  EXPECT_EQ(br_out.base, 17u);
  EXPECT_EQ(br_out.parent_branch, 2u);
  EXPECT_FALSE(br_out.at_head);
  EXPECT_EQ(br_out.head, 19u);

  std::string staged;
  wal::EncodeBatchBody(&staged, /*branch=*/1, batch);
  wal::MergeBody mg{1, 2, 30, 31, MergePolicy::kThreeWayLeft, {29, 30}, staged};
  body.clear();
  wal::EncodeMergeBody(&body, mg);
  wal::MergeBody mg_out;
  ASSERT_OK(wal::DecodeMergeBody(Slice(body), &mg_out));
  EXPECT_EQ(mg_out.into, 1u);
  EXPECT_EQ(mg_out.from, 2u);
  EXPECT_EQ(mg_out.lca, 30u);
  EXPECT_EQ(mg_out.commit, 31u);
  EXPECT_EQ(mg_out.policy, MergePolicy::kThreeWayLeft);
  EXPECT_EQ(mg_out.parents, (std::vector<CommitId>{29, 30}));
  // The trailing bytes — the staged batch — survive the round trip and
  // decode back to the original ops.
  EXPECT_EQ(mg_out.batch_body, staged);
  WriteBatch staged_out(&schema);
  BranchId staged_branch = kInvalidBranch;
  ASSERT_OK(wal::DecodeBatchBody(Slice(mg_out.batch_body), &staged_branch,
                                 &staged_out));
  EXPECT_EQ(staged_branch, 1u);
  EXPECT_EQ(staged_out.size(), 3u);
}

TEST(WalWriterTest, AppendReadRoundTripAndRoll) {
  ScratchDir dir("wal_rt");
  wal::Writer::Options wopts;
  wopts.sync_mode = wal::SyncMode::kNone;
  wopts.segment_bytes = 64;  // force a roll between records
  ASSERT_OK_AND_ASSIGN(
      auto writer, wal::Writer::Open(dir.path(), wopts, /*next_lsn=*/1,
                                     /*segment_seq=*/1));
  const std::string big(80, 'x');
  ASSERT_OK_AND_ASSIGN(uint64_t lsn1,
                       writer->Append(wal::RecordType::kBatch, Slice(big)));
  ASSERT_OK_AND_ASSIGN(uint64_t lsn2,
                       writer->Append(wal::RecordType::kCommit, "tiny"));
  EXPECT_EQ(lsn1, 1u);
  EXPECT_EQ(lsn2, 2u);
  EXPECT_EQ(writer->segment_seq(), 2u);  // record 2 rolled into segment 2
  ASSERT_OK(writer->Close());

  ASSERT_OK_AND_ASSIGN(auto r1,
                       wal::Reader::Open(wal::Writer::SegmentPath(dir.path(), 1)));
  wal::FrameView frame;
  ASSERT_TRUE(r1->Next(&frame));
  EXPECT_EQ(frame.lsn, 1u);
  EXPECT_EQ(frame.type, wal::RecordType::kBatch);
  EXPECT_EQ(frame.body.ToString(), big);
  EXPECT_FALSE(r1->Next(&frame));
  EXPECT_FALSE(r1->torn_tail());

  ASSERT_OK_AND_ASSIGN(auto r2,
                       wal::Reader::Open(wal::Writer::SegmentPath(dir.path(), 2)));
  ASSERT_TRUE(r2->Next(&frame));
  EXPECT_EQ(frame.lsn, 2u);
  EXPECT_EQ(frame.body.ToString(), "tiny");
  EXPECT_FALSE(r2->Next(&frame));
}

TEST(WalReaderTest, TornTailAtEveryByteOffset) {
  ScratchDir dir("wal_torn");
  wal::Writer::Options wopts;
  wopts.sync_mode = wal::SyncMode::kNone;
  ASSERT_OK_AND_ASSIGN(auto writer,
                       wal::Writer::Open(dir.path(), wopts, 1, 1));
  ASSERT_OK(writer->Append(wal::RecordType::kBatch, "first-record").status());
  ASSERT_OK(writer->Append(wal::RecordType::kCommit, "second").status());
  ASSERT_OK(
      writer->Append(wal::RecordType::kMerge, "the-final-record").status());
  ASSERT_OK(writer->Close());

  const std::string seg = wal::Writer::SegmentPath(dir.path(), 1);
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(seg));
  uint64_t clean_end = 0;
  std::vector<uint64_t> offsets = FrameOffsets(data, &clean_end);
  ASSERT_EQ(offsets.size(), 3u);
  ASSERT_EQ(clean_end, data.size());
  const uint64_t last_start = offsets[2];

  // Truncate at every byte offset inside the last record: the reader must
  // always yield exactly the first two records and flag the torn tail
  // (except at the exact boundary, where the file simply ends cleanly).
  const std::string cut_path = JoinPath(dir.path(), "cut.wal");
  for (uint64_t cut = last_start; cut < data.size(); ++cut) {
    ASSERT_OK(WriteStringToFile(cut_path, Slice(data.data(), cut)));
    ASSERT_OK_AND_ASSIGN(auto reader, wal::Reader::Open(cut_path));
    wal::FrameView frame;
    int n = 0;
    while (reader->Next(&frame)) ++n;
    EXPECT_EQ(n, 2) << "cut=" << cut;
    EXPECT_EQ(reader->valid_end(), last_start) << "cut=" << cut;
    EXPECT_EQ(reader->torn_tail(), cut != last_start) << "cut=" << cut;
  }
}

TEST(WalReaderTest, CorruptCrcStopsAtValidPrefix) {
  ScratchDir dir("wal_crc");
  wal::Writer::Options wopts;
  wopts.sync_mode = wal::SyncMode::kNone;
  ASSERT_OK_AND_ASSIGN(auto writer,
                       wal::Writer::Open(dir.path(), wopts, 1, 1));
  ASSERT_OK(writer->Append(wal::RecordType::kBatch, "intact").status());
  ASSERT_OK(writer->Append(wal::RecordType::kCommit, "damaged").status());
  ASSERT_OK(writer->Close());

  const std::string seg = wal::Writer::SegmentPath(dir.path(), 1);
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(seg));
  uint64_t clean_end = 0;
  std::vector<uint64_t> offsets = FrameOffsets(data, &clean_end);
  ASSERT_EQ(offsets.size(), 2u);
  // Flip a payload byte of the second record: its CRC no longer matches.
  FlipByte(seg, offsets[1] + wal::kFrameHeaderSize + 2);

  ASSERT_OK_AND_ASSIGN(auto reader, wal::Reader::Open(seg));
  wal::FrameView frame;
  ASSERT_TRUE(reader->Next(&frame));
  EXPECT_EQ(frame.body.ToString(), "intact");
  EXPECT_FALSE(reader->Next(&frame));
  EXPECT_TRUE(reader->torn_tail());
  EXPECT_EQ(reader->valid_end(), offsets[1]);
}

TEST(WalReaderTest, ZeroTailReadsAsATornTailAfterTheLastFrame) {
  ScratchDir dir("wal_zero_tail");
  wal::Writer::Options wopts;
  wopts.sync_mode = wal::SyncMode::kNone;
  ASSERT_OK_AND_ASSIGN(auto writer,
                       wal::Writer::Open(dir.path(), wopts, 1, 1));
  ASSERT_OK(writer->Append(wal::RecordType::kBatch, "first").status());
  ASSERT_OK(writer->Append(wal::RecordType::kCommit, "second").status());
  ASSERT_OK(writer->Close());
  ASSERT_OK_AND_ASSIGN(
      std::string frames,
      ReadFileToString(wal::Writer::SegmentPath(dir.path(), 1)));

  // The zero-filled region a kFsync writer keeps past its last frame,
  // including tails shorter than one frame header.
  const std::string padded = JoinPath(dir.path(), "padded.wal");
  for (size_t zeros : {1, 7, 8, 4096}) {
    ASSERT_OK(WriteStringToFile(padded, frames + std::string(zeros, '\0')));
    ASSERT_OK_AND_ASSIGN(auto reader, wal::Reader::Open(padded));
    wal::FrameView frame;
    std::vector<uint64_t> lsns;
    while (reader->Next(&frame)) lsns.push_back(frame.lsn);
    EXPECT_EQ(lsns, (std::vector<uint64_t>{1, 2})) << "zeros=" << zeros;
    EXPECT_TRUE(reader->torn_tail()) << "zeros=" << zeros;
    EXPECT_EQ(reader->valid_end(), frames.size()) << "zeros=" << zeros;
  }
}

TEST(WalWriterTest, FsyncSegmentKeepsAZeroTailUntilSealed) {
  ScratchDir dir("wal_fsync_tail");
  wal::Writer::Options wopts;
  wopts.sync_mode = wal::SyncMode::kFsync;
  ASSERT_OK_AND_ASSIGN(auto writer,
                       wal::Writer::Open(dir.path(), wopts, 1, 1));
  auto size_of = [&](uint64_t seq) {
    auto size = FileSize(wal::Writer::SegmentPath(dir.path(), seq));
    EXPECT_OK(size.status());
    return size.ok() ? *size : 0;
  };
  constexpr uint64_t kExtend = wal::Writer::kZeroExtendBytes;

  // A segment that never receives a record is never extended.
  ASSERT_OK_AND_ASSIGN(uint64_t seq, writer->Roll());
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(size_of(1), 0u);

  ASSERT_OK_AND_ASSIGN(uint64_t lsn,
                       writer->Append(wal::RecordType::kCommit, "abc"));
  ASSERT_OK(writer->Sync(lsn));
  EXPECT_EQ(size_of(2), kExtend);
  // A frame larger than one extension extends by whole extensions.
  const std::string big(kExtend + 10, 'x');
  ASSERT_OK_AND_ASSIGN(lsn, writer->Append(wal::RecordType::kBatch, big));
  ASSERT_OK(writer->Sync(lsn));
  EXPECT_EQ(size_of(2), 2 * kExtend);

  // Sealing trims: a sealed segment ends at its last frame.
  ASSERT_OK(writer->Roll().status());
  EXPECT_EQ(size_of(2), writer->bytes_appended());
  ASSERT_OK(writer->Append(wal::RecordType::kCommit, "tail").status());
  EXPECT_EQ(size_of(3), kExtend);
  ASSERT_OK(writer->Close());
  EXPECT_EQ(size_of(3) + size_of(2), writer->bytes_appended());
}

/// One committer under kFsync issues one fdatasync per record; every other
/// mode issues none.
TEST(WalWriterTest, SyncCountersFollowTheSyncMode) {
  for (wal::SyncMode mode : {wal::SyncMode::kFsync, wal::SyncMode::kFlush,
                             wal::SyncMode::kNone, wal::SyncMode::kOff}) {
    ScratchDir dir("wal_sync_counters");
    wal::Writer::Options wopts;
    wopts.sync_mode = mode;
    ASSERT_OK_AND_ASSIGN(auto writer,
                         wal::Writer::Open(dir.path(), wopts, 1, 1));
    constexpr uint64_t kRecords = 20;
    for (uint64_t i = 0; i < kRecords; ++i) {
      ASSERT_OK_AND_ASSIGN(uint64_t lsn,
                           writer->Append(wal::RecordType::kCommit, "r"));
      ASSERT_OK(writer->Sync(lsn));
      // Already durable: no second fdatasync.
      ASSERT_OK(writer->Sync(lsn));
    }
    const bool fsync = mode == wal::SyncMode::kFsync;
    EXPECT_EQ(writer->syncs(), fsync ? kRecords : 0u);
    EXPECT_EQ(writer->syncs_in_flight_max(), fsync ? 1u : 0u);
    EXPECT_EQ(writer->synced_lsn(), fsync ? kRecords : 0u);
    ASSERT_OK(writer->Close());
  }
}

/// The fsyncgate rule: once a write fails, the writer never reports
/// success again. A forked child caps its file size just past the first
/// zero-extension, so the append that needs the second one fails.
TEST(WalWriterTest, FailedZeroExtensionPoisonsEveryLaterCall) {
  ScratchDir dir("wal_poison");
  constexpr size_t kBody = 4000;
  constexpr uint64_t kExtend = wal::Writer::kZeroExtendBytes;
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest machinery, no return — only _exit.
    std::signal(SIGXFSZ, SIG_IGN);  // EFBIG instead of a fatal signal
    struct rlimit limit;
    limit.rlim_cur = limit.rlim_max = kExtend + 4096;
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(2);
    wal::Writer::Options wopts;
    wopts.sync_mode = wal::SyncMode::kFsync;
    auto writer = wal::Writer::Open(dir.path(), wopts, 1, 1);
    if (!writer.ok()) _exit(3);
    const std::string body(kBody, 'w');
    uint64_t acked = 0;
    for (;;) {
      auto lsn = (*writer)->Append(wal::RecordType::kBatch, body);
      if (!lsn.ok()) break;
      if (!(*writer)->Sync(*lsn).ok()) _exit(4);
      acked = *lsn;
      if (acked > 2 * kExtend / kBody) _exit(5);  // the limit never bit
    }
    if (acked == 0) _exit(6);
    // Every later call fails, even a Sync of an already-synced lsn.
    if ((*writer)->Append(wal::RecordType::kCommit, "x").ok()) _exit(7);
    if ((*writer)->Sync(acked).ok()) _exit(8);
    if ((*writer)->Roll().ok()) _exit(9);
    if ((*writer)->Close().ok()) _exit(10);
    _exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  // The segment holds every frame that fit in the first extension, in
  // lsn order, followed by zeros.
  ASSERT_OK_AND_ASSIGN(auto reader, wal::Reader::Open(wal::Writer::SegmentPath(
                                        dir.path(), 1)));
  wal::FrameView frame;
  uint64_t n = 0;
  while (reader->Next(&frame)) EXPECT_EQ(frame.lsn, ++n);
  EXPECT_GT(n, 0u);
  EXPECT_TRUE(reader->torn_tail());
  EXPECT_LE(reader->valid_end(), kExtend);
  EXPECT_GT(reader->valid_end() + wal::kFrameHeaderSize + kBody, kExtend);
}

/// Group commit across zero-extensions and rolls: appenders extend and
/// roll the active segment under the append lock while overlapping
/// fdatasyncs run off it, some on the previous segment's sync files. A
/// Sync that returns OK has made its own lsn durable, not merely waited
/// on whatever sync was in flight.
TEST(WalWriterTest, ConcurrentFsyncAppendersAcrossExtensionsAndRolls) {
  ScratchDir dir("wal_fsync_concurrent");
  wal::Writer::Options wopts;
  wopts.sync_mode = wal::SyncMode::kFsync;
  wopts.segment_bytes = wal::Writer::kZeroExtendBytes * 3 / 2;
  ASSERT_OK_AND_ASSIGN(auto writer,
                       wal::Writer::Open(dir.path(), wopts, 1, 1));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::atomic<int> failures{0};
  std::atomic<int> uncovered{0};
  std::vector<std::vector<uint64_t>> lsns(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string body(4000, static_cast<char>('a' + t));
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn = writer->Append(wal::RecordType::kBatch, body);
        if (!lsn.ok() || !writer->Sync(*lsn).ok()) {
          ++failures;
          return;
        }
        if (writer->synced_lsn() < *lsn) ++uncovered;
        lsns[t].push_back(*lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(uncovered.load(), 0);
  // Group commit never syncs more often than it appends.
  EXPECT_GE(writer->syncs(), 1u);
  EXPECT_LE(writer->syncs(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(writer->syncs_in_flight_max(), 1u);
  EXPECT_LE(writer->syncs_in_flight_max(), static_cast<uint64_t>(kThreads));
  ASSERT_OK(writer->Close());

  std::vector<uint64_t> all;
  for (const auto& v : lsns) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i + 1);

  // On disk: lsns dense across every segment, and each segment (sealed
  // by a roll or by Close) ends exactly at its last frame.
  ASSERT_GE(writer->segment_seq(), 3u);
  uint64_t expected = 1;
  for (uint64_t seq = 1; seq <= writer->segment_seq(); ++seq) {
    ASSERT_OK_AND_ASSIGN(auto reader, wal::Reader::Open(wal::Writer::SegmentPath(
                                          dir.path(), seq)));
    wal::FrameView frame;
    while (reader->Next(&frame)) ASSERT_EQ(frame.lsn, expected++);
    EXPECT_FALSE(reader->torn_tail()) << "segment " << seq;
    EXPECT_EQ(reader->valid_end(), reader->file_size()) << "segment " << seq;
  }
  EXPECT_EQ(expected - 1, all.size());
}

// ------------------------------------------------------------- manifest

TEST(ManifestTest, RoundTripAndFallback) {
  ScratchDir dir("manifest");
  wal::ManifestData m;
  m.version = 1;
  m.checkpoint_tag = wal::CheckpointTag(1);
  m.checkpoint_lsn = 12;
  m.next_lsn = 13;
  m.wal_start_seq = 3;
  m.schema = "schema-bytes";
  m.engine = EngineType::kVersionFirst;
  ASSERT_OK(wal::WriteManifest(dir.path(), m, /*sync=*/false));

  ASSERT_OK_AND_ASSIGN(wal::ManifestData got,
                       wal::ReadCurrentManifest(dir.path()));
  EXPECT_EQ(got.version, 1u);
  EXPECT_EQ(got.checkpoint_tag, "ckpt-000001");
  EXPECT_EQ(got.checkpoint_lsn, 12u);
  EXPECT_EQ(got.next_lsn, 13u);
  EXPECT_EQ(got.wal_start_seq, 3u);
  EXPECT_EQ(got.schema, "schema-bytes");
  EXPECT_EQ(got.engine, EngineType::kVersionFirst);

  // Publish generation 2, then corrupt it: reads fall back to gen 1.
  m.version = 2;
  m.checkpoint_tag = wal::CheckpointTag(2);
  ASSERT_OK(wal::WriteManifest(dir.path(), m, false));
  ASSERT_OK_AND_ASSIGN(got, wal::ReadCurrentManifest(dir.path()));
  EXPECT_EQ(got.version, 2u);
  FlipByte(wal::ManifestFilePath(dir.path(), 2), 10);
  ASSERT_OK_AND_ASSIGN(got, wal::ReadCurrentManifest(dir.path()));
  EXPECT_EQ(got.version, 1u);

  // A missing CURRENT pointer also falls back to the highest readable.
  ASSERT_OK(RemoveFile(wal::CurrentFilePath(dir.path())));
  ASSERT_OK_AND_ASSIGN(got, wal::ReadCurrentManifest(dir.path()));
  EXPECT_EQ(got.version, 1u);

  ScratchDir empty("manifest_empty");
  EXPECT_TRUE(wal::ReadCurrentManifest(empty.path()).status().IsNotFound());
}

// ------------------------------------------------------- full recovery

class RecoveryTest : public ::testing::TestWithParam<EngineType> {
 protected:
  Result<std::unique_ptr<Decibel>> OpenDb(
      const std::string& dir, wal::SyncMode mode = wal::SyncMode::kFlush) {
    return Decibel::Open(dir, TestSchema(), DurableOptions(GetParam(), mode));
  }
  Result<std::unique_ptr<Decibel>> ReopenDb(
      const std::string& dir, wal::SyncMode mode = wal::SyncMode::kFlush) {
    return Decibel::Open(dir, DurableOptions(GetParam(), mode));
  }
};

/// Every regular file under \p dir (recursively), path -> bytes.
std::map<std::string, std::string> SnapshotFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    auto bytes = ReadFileToString(entry.path().string());
    EXPECT_OK(bytes.status());
    files[entry.path().string()] = bytes.ok() ? *bytes : "";
  }
  return files;
}

TEST_P(RecoveryTest, UnreadableManifestsFailOpenAndLeaveTheDataAlone) {
  // A closed database whose every MANIFEST-* is corrupt is damaged, not
  // absent: neither Open overload may initialize a fresh database over
  // its data files.
  ScratchDir dir("recov_bad_manifests");
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    ASSERT_OK(db->CheckpointNow());
  }
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, ListDir(dir.path()));
  int corrupted = 0;
  for (const std::string& name : names) {
    if (name.rfind("MANIFEST-", 0) != 0) continue;
    FlipByte(JoinPath(dir.path(), name), 10);
    ++corrupted;
  }
  ASSERT_GE(corrupted, 1);
  const auto before = SnapshotFiles(dir.path());

  auto with_schema = OpenDb(dir.path());
  EXPECT_TRUE(with_schema.status().IsCorruption())
      << with_schema.status().ToString();
  EXPECT_EQ(SnapshotFiles(dir.path()), before);

  auto from_manifest = ReopenDb(dir.path());
  EXPECT_TRUE(from_manifest.status().IsCorruption())
      << from_manifest.status().ToString();
  EXPECT_EQ(SnapshotFiles(dir.path()), before);
}

TEST_P(RecoveryTest, CleanReopenPreservesBranchesCommitsAndData) {
  ScratchDir dir("recov_clean");
  CommitId c1 = kInvalidCommit;
  BranchId dev = kInvalidBranch;
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK_AND_ASSIGN(c1, db->CommitBranch(kMasterBranch));
    ASSERT_OK_AND_ASSIGN(dev, db->BranchAt("dev", c1));
    ASSERT_OK(db->InsertInto(dev, MakeRecord(db->schema(), 100, 100)));
    ASSERT_OK(db->UpdateIn(kMasterBranch, MakeRecord(db->schema(), 3, 333)));
    ASSERT_OK(db->DeleteFrom(kMasterBranch, 4));
    ASSERT_OK(db->CommitBranch(dev).status());
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    ASSERT_OK(
        db->Merge(kMasterBranch, dev, MergePolicy::kThreeWayLeft).status());
  }  // destructor checkpoints + closes the WAL

  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(dir.path()));
  EXPECT_TRUE(db->durable());
  EXPECT_EQ(db->schema().num_columns(), TestSchema().num_columns());

  auto master = CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(master.size(), 20u);  // 20 - deleted pk4 + merged pk100
  EXPECT_EQ(master.count(4), 0u);
  EXPECT_EQ(master[3], 333);
  EXPECT_EQ(master[100], 100);
  auto dev_rows = CollectBranch(db.get(), dev);
  EXPECT_EQ(dev_rows.size(), 21u);
  EXPECT_EQ(dev_rows[100], 100);

  // Graph state: branch names, heads, and history all survive.
  ASSERT_OK_AND_ASSIGN(BranchId dev_again,
                       db->graph().FindBranchByName("dev"));
  EXPECT_EQ(dev_again, dev);
  EXPECT_TRUE(db->graph().HasCommit(c1));
  EXPECT_NE(db->graph().Head(kMasterBranch), kInvalidCommit);
  EXPECT_FALSE(db->IsDirty(kMasterBranch));
  // Historical read at the first commit still sees the original values.
  ASSERT_OK_AND_ASSIGN(Record old3, db->GetAt(c1, 3));
  EXPECT_EQ(old3.ref().GetInt32(1), 3);

  // The database stays writable after recovery.
  ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), 200, 2)));
  ASSERT_OK(db->CommitBranch(kMasterBranch).status());
}

TEST_P(RecoveryTest, CrashConsistentCopyReplaysWal) {
  ScratchDir dir("recov_crash");
  ScratchDir crash("recov_crash_copy");
  BranchId side = kInvalidBranch;
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK_AND_ASSIGN(CommitId base, db->CommitBranch(kMasterBranch));
    ASSERT_OK_AND_ASSIGN(side, db->BranchAt("side", base));
    ASSERT_OK(db->InsertInto(side, MakeRecord(db->schema(), 50, 5)));
    ASSERT_OK(db->CommitBranch(side).status());
    // Snapshot the directory while the db is still open: no destructor,
    // no final checkpoint — recovery must come from the WAL alone.
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
  }

  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(crash.path()));
  auto master = CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(master.size(), 10u);
  auto side_rows = CollectBranch(db.get(), side);
  EXPECT_EQ(side_rows.size(), 11u);
  EXPECT_EQ(side_rows[50], 5);
  ASSERT_OK_AND_ASSIGN(BranchId side_again,
                       db->graph().FindBranchByName("side"));
  EXPECT_EQ(side_again, side);
  EXPECT_FALSE(db->IsDirty(side));
}

TEST_P(RecoveryTest, MergeInWalTailReplaysCarriedBatch) {
  // A merge whose kMerge record sits in the WAL tail (crash after the
  // merge, before any checkpoint) must replay to the exact merged state.
  // The record carries the *resolved* batch, so replay applies it without
  // re-running the merge — a callback-resolved merge recovers bit-exact
  // even though the callback itself no longer exists at recovery time.
  ScratchDir dir("recov_merge");
  ScratchDir crash("recov_merge_copy");
  BranchId dev = kInvalidBranch;
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK_AND_ASSIGN(CommitId base, db->CommitBranch(kMasterBranch));
    ASSERT_OK_AND_ASSIGN(dev, db->BranchAt("dev", base));
    // dev: update pk1, delete pk2, insert pk40. master: update pk1 too,
    // so the merge has a genuine conflict for the callback to decide.
    ASSERT_OK(db->UpdateIn(dev, MakeRecord(db->schema(), 1, 111)));
    ASSERT_OK(db->DeleteFrom(dev, 2));
    ASSERT_OK(db->InsertInto(dev, MakeRecord(db->schema(), 40, 44)));
    ASSERT_OK(db->UpdateIn(kMasterBranch, MakeRecord(db->schema(), 1, 999)));
    const MergeSpec spec =
        MergeSpec::Branches(kMasterBranch, dev)
            .OnConflict([&](const MergeConflict& c) {
              // Resolve the pk-1 conflict to a value neither side holds:
              // only the carried batch can reproduce it at replay.
              return ConflictResolution::Custom(
                  MakeRecord(db->schema(), c.pk, 555));
            });
    ASSERT_OK_AND_ASSIGN(MergeInfo info, db->Merge(spec));
    EXPECT_EQ(info.result.conflicts, 1u);
    // Snapshot with the db still open: the merge exists only in the WAL.
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
  }

  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(crash.path()));
  auto master = CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(master[1], 555);       // callback's custom record
  EXPECT_EQ(master.count(2), 0u);  // dev's delete adopted
  EXPECT_EQ(master[40], 44);       // dev's insert adopted
  EXPECT_EQ(master.size(), 10u);   // 10 - pk2 + pk40
  // The merge commit survives with both parents.
  ASSERT_OK_AND_ASSIGN(CommitInfo head,
                       db->graph().GetCommit(db->graph().Head(kMasterBranch)));
  EXPECT_EQ(head.parents.size(), 2u);
  // The recovered db keeps working: scan dev and write master.
  EXPECT_EQ(CollectBranch(db.get(), dev).size(), 10u);
  ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), 50, 5)));
  ASSERT_OK(db->CommitBranch(kMasterBranch).status());
}

TEST_P(RecoveryTest, TornWalTailLosesOnlyTheTornSuffix) {
  ScratchDir dir("recov_torn");
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    for (int i = 0; i < 8; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    // One more insert whose WAL record we will shear off.
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), 99, 9)));

    std::vector<std::string> segments = WalSegments(dir.path());
    ASSERT_FALSE(segments.empty());
    const std::string& last_seg = segments.back();
    ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(last_seg));
    uint64_t clean_end = 0;
    std::vector<uint64_t> offsets = FrameOffsets(data, &clean_end);
    ASSERT_GE(offsets.size(), 2u);

    // Shear mid-way through the final record (the pk-99 insert), then
    // abandon the db without closing it (the copy below is the "disk").
    ScratchDir crash("recov_torn_copy");
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
    const std::string crash_seg =
        JoinPath(JoinPath(crash.path(), "wal"),
                 last_seg.substr(last_seg.find_last_of('/') + 1));
    ASSERT_OK(TruncateFile(crash_seg, offsets.back() + wal::kFrameHeaderSize + 1));

    ASSERT_OK_AND_ASSIGN(auto recovered, ReopenDb(crash.path()));
    auto master = CollectBranch(recovered.get(), kMasterBranch);
    EXPECT_EQ(master.size(), 8u);  // torn pk-99 insert is gone...
    EXPECT_EQ(master.count(99), 0u);
    // ...and the recovered db accepts new writes where the tail was cut.
    ASSERT_OK(recovered->InsertInto(kMasterBranch,
                                    MakeRecord(recovered->schema(), 99, 1)));
    EXPECT_EQ(CollectBranch(recovered.get(), kMasterBranch).size(), 9u);
  }
}

TEST_P(RecoveryTest, RecoveryIgnoresGarbageGraphFile) {
  ScratchDir dir("recov_graph");
  ScratchDir crash("recov_graph_copy");
  BranchId feature = kInvalidBranch;
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK_AND_ASSIGN(CommitId base, db->CommitBranch(kMasterBranch));
    ASSERT_OK_AND_ASSIGN(feature, db->BranchAt("feature", base));
    ASSERT_OK(db->InsertInto(feature, MakeRecord(db->schema(), 70, 7)));
    ASSERT_OK(db->CommitBranch(feature).status());
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
  }
  // A power loss can leave a legacy per-commit graph.bin rename as
  // anything — stale bytes, garbage, an empty file. Recovery must never
  // read it: the checkpointed graph.bin.<tag> plus WAL replay is the
  // truth.
  ASSERT_OK(WriteStringToFile(JoinPath(crash.path(), "graph.bin"), "junk"));
  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(crash.path()));
  EXPECT_EQ(CollectBranch(db.get(), kMasterBranch).size(), 10u);
  auto feature_rows = CollectBranch(db.get(), feature);
  EXPECT_EQ(feature_rows.size(), 11u);
  EXPECT_EQ(feature_rows[70], 7);
  ASSERT_OK_AND_ASSIGN(BranchId again,
                       db->graph().FindBranchByName("feature"));
  EXPECT_EQ(again, feature);
}

TEST_P(RecoveryTest, CorruptCheckpointGraphIsCorruption) {
  ScratchDir dir("recov_graphckpt");
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), 1, 1)));
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
  }
  // The per-checkpoint graph copy is the durable anchor; if it is
  // damaged, recovery must say so rather than improvise.
  ASSERT_OK_AND_ASSIGN(wal::ManifestData m,
                       wal::ReadCurrentManifest(dir.path()));
  FlipByte(JoinPath(dir.path(), "graph.bin." + m.checkpoint_tag), 2);
  EXPECT_TRUE(ReopenDb(dir.path()).status().IsCorruption());
}

TEST_P(RecoveryTest, MissingFirstLiveWalSegmentIsCorruption) {
  ScratchDir dir("recov_first");
  ScratchDir crash("recov_first_copy");
  {
    DecibelOptions options = DurableOptions(GetParam());
    options.wal_segment_bytes = 128;  // roll constantly
    ASSERT_OK_AND_ASSIGN(auto db,
                         Decibel::Open(dir.path(), TestSchema(), options));
    for (int i = 0; i < 30; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
  }
  // Drop exactly the segment the manifest pins as the start of the live
  // window: the remaining segments are gap-free among themselves, but the
  // oldest post-checkpoint records are gone.
  ASSERT_OK_AND_ASSIGN(wal::ManifestData m,
                       wal::ReadCurrentManifest(crash.path()));
  ASSERT_OK(RemoveFile(wal::Writer::SegmentPath(JoinPath(crash.path(), "wal"),
                                                m.wal_start_seq)));
  EXPECT_TRUE(ReopenDb(crash.path()).status().IsCorruption());
}

TEST_P(RecoveryTest, EngineMetaWithoutFormatHeaderFailsClearly) {
  ScratchDir dir("recov_meta");
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), 1, 1)));
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
  }
  // Clobber the meta's magic: a headerless (pre-versioning) meta must be
  // rejected with a clear InvalidArgument, not a misleading mid-decode
  // Corruption.
  ASSERT_OK_AND_ASSIGN(wal::ManifestData m,
                       wal::ReadCurrentManifest(dir.path()));
  const std::string meta_path =
      JoinPath(JoinPath(dir.path(), EngineTypeName(GetParam())),
               "engine.meta." + m.checkpoint_tag);
  FlipByte(meta_path, 0);
  const Status s = ReopenDb(dir.path()).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("format header"), std::string::npos)
      << s.ToString();
}

TEST_P(RecoveryTest, MissingWalSegmentIsCorruption) {
  ScratchDir dir("recov_gap");
  ScratchDir crash("recov_gap_copy");
  {
    DecibelOptions options = DurableOptions(GetParam());
    options.wal_segment_bytes = 128;  // roll constantly
    ASSERT_OK_AND_ASSIGN(auto db,
                         Decibel::Open(dir.path(), TestSchema(), options));
    for (int i = 0; i < 30; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
  }
  std::vector<std::string> segments = WalSegments(crash.path());
  ASSERT_GE(segments.size(), 3u);
  ASSERT_OK(RemoveFile(segments[segments.size() / 2]));
  EXPECT_TRUE(ReopenDb(crash.path()).status().IsCorruption());
}

TEST_P(RecoveryTest, CorruptManifestFallsBackToPreviousGeneration) {
  ScratchDir dir("recov_manifest");
  ScratchDir crash("recov_manifest_copy");
  uint64_t generation = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    ASSERT_OK(db->CheckpointNow());  // publishes a new manifest generation
    generation = db->checkpoint_generation();
    // More acknowledged work after the checkpoint: it lives only in the
    // WAL suffix, which the fallback generation must also replay.
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), 77, 7)));
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
  }
  ASSERT_GE(generation, 2u);
  // Corrupt the newest manifest in the snapshot; recovery must fall back
  // to the previous generation and still replay up to the last commit.
  FlipByte(wal::ManifestFilePath(crash.path(), generation), 12);
  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(crash.path()));
  auto master = CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(master.size(), 11u);
  EXPECT_EQ(master[77], 7);
}

TEST_P(RecoveryTest, BackgroundCheckpointsTruncateTheWal) {
  ScratchDir dir("recov_trunc");
  DecibelOptions options =
      DurableOptions(GetParam(), wal::SyncMode::kNone);
  options.checkpoint_interval_bytes = 512;  // checkpoint eagerly
  uint64_t generation = 0;
  int rows = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto db,
                         Decibel::Open(dir.path(), TestSchema(), options));
    // Feed the WAL until the background checkpointer has run at least
    // twice past Open's own checkpoint (generation 1). The scheduler
    // coalesces any backlog of pending bytes into one run, so a fixed
    // write count can legitimately be covered by a single background
    // checkpoint; writing until the generation moves makes the test
    // independent of how the scheduler thread interleaves with us.
    while (rows < 200 ||
           (db->checkpoint_generation() < 3 && rows < 100000)) {
      ASSERT_OK(
          db->InsertInto(kMasterBranch, MakeRecord(db->schema(), rows, rows)));
      if (++rows % 50 == 0) ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    }
    for (int spin = 0; spin < 100 && db->checkpoint_generation() < 3; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    generation = db->checkpoint_generation();
  }
  EXPECT_GE(generation, 3u) << "background checkpointer never ran";
  // Old generations are garbage-collected: at most two manifests and a
  // short WAL suffix remain.
  int manifests = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, ListDir(dir.path()));
  for (const auto& name : names) {
    if (name.rfind("MANIFEST-", 0) == 0) ++manifests;
  }
  EXPECT_LE(manifests, 2);
  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(dir.path()));
  EXPECT_EQ(CollectBranch(db.get(), kMasterBranch).size(),
            static_cast<size_t>(rows));
}

/// The acceptance crash test: a forked child loads records under kFsync,
/// recording each acknowledged commit in a side file, then dies with
/// _exit — no destructors, no flushes, exactly like kill -9. The parent
/// reopens the directory and verifies every acknowledged commit survived.
TEST_P(RecoveryTest, KilledChildLosesNoAcknowledgedCommit) {
  ScratchDir dir("recov_kill");
  // Lives outside the db directory so recovery never sees it.
  const std::string progress = dir.path() + "_progress";
  RemoveFile(progress).ok();

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest machinery, no return — only _exit.
    DecibelOptions options =
        DurableOptions(GetParam(), wal::SyncMode::kFsync);
    auto db = Decibel::Open(dir.path(), TestSchema(), options);
    if (!db.ok()) _exit(3);
    auto side = (*db)->BranchAt("side", (*db)->graph().Head(kMasterBranch));
    if (!side.ok()) _exit(4);
    int acked = -1;
    for (int i = 0; i < 60; ++i) {
      const BranchId target = (i % 2 == 0) ? kMasterBranch : *side;
      if (!(*db)->InsertInto(target, MakeRecord((*db)->schema(), i, i)).ok()) {
        _exit(5);
      }
      if (i % 5 == 4) {
        auto c = (*db)->CommitBranch(kMasterBranch);
        auto c2 = (*db)->CommitBranch(*side);
        if (!c.ok() || !c2.ok()) _exit(6);
        // The commits are acknowledged: record that durably, then keep
        // loading so the crash lands with acknowledged state at risk.
        acked = i;
        std::string note = std::to_string(acked) + "," +
                           std::to_string(*c) + "," + std::to_string(*c2);
        if (!AtomicWriteFile(progress, note, /*sync=*/true).ok()) _exit(7);
      }
      if (i == 42) _exit(42);  // crash mid-load, uncommitted tail pending
    }
    _exit(8);  // unreachable: the crash above fires first
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 42) << "child failed before the crash point";

  ASSERT_OK_AND_ASSIGN(std::string note, ReadFileToString(progress));
  const int acked = std::stoi(note.substr(0, note.find(',')));
  std::string rest = note.substr(note.find(',') + 1);
  const CommitId master_commit = std::stoull(rest.substr(0, rest.find(',')));
  const CommitId side_commit = std::stoull(rest.substr(rest.find(',') + 1));
  ASSERT_GE(acked, 39);  // the i==39 round committed before the i==42 crash

  ASSERT_OK_AND_ASSIGN(
      auto db, ReopenDb(dir.path(), wal::SyncMode::kFsync));
  ASSERT_OK_AND_ASSIGN(BranchId side, db->graph().FindBranchByName("side"));
  // Every record up to the acknowledged commit is present on its branch.
  for (int i = 0; i <= acked; ++i) {
    const BranchId target = (i % 2 == 0) ? kMasterBranch : side;
    ASSERT_OK_AND_ASSIGN(Record rec, db->Get(target, i));
    EXPECT_EQ(rec.ref().GetInt32(1), i) << "pk " << i;
  }
  // The acknowledged commit ids themselves survive in the graph, at the
  // heads of their branches or among their ancestors.
  EXPECT_TRUE(db->graph().HasCommit(master_commit));
  EXPECT_TRUE(db->graph().HasCommit(side_commit));
  EXPECT_TRUE(db->graph().IsAncestor(master_commit,
                                     db->graph().Head(kMasterBranch)) ||
              db->graph().Head(kMasterBranch) == master_commit);
  RemoveFile(progress).ok();
}

/// A kFsync crash copy taken while the database is open carries the
/// active segment's zero tail. Recovery reads the zeros as a torn tail,
/// keeps every acknowledged row and cuts the segment back to its frames.
TEST_P(RecoveryTest, FsyncCrashCopyWithAZeroTailKeepsEveryAckedRow) {
  ScratchDir dir("recov_zero_tail");
  ScratchDir crash("recov_zero_tail_copy");
  std::string segment;
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path(), wal::SyncMode::kFsync));
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), 100, 7)));
    const std::string active = WalSegments(dir.path()).back();
    ASSERT_OK_AND_ASSIGN(uint64_t size, FileSize(active));
    EXPECT_EQ(size, wal::Writer::kZeroExtendBytes);
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
    segment = JoinPath(JoinPath(crash.path(), "wal"),
                       active.substr(active.find_last_of('/') + 1));
  }

  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(crash.path(), wal::SyncMode::kFsync));
  auto master = CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(master.size(), 21u);
  EXPECT_EQ(master[100], 7);
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(segment));
  uint64_t frames_end = 0;
  EXPECT_FALSE(FrameOffsets(data, &frames_end).empty());
  EXPECT_EQ(data.size(), frames_end);
}

/// With a small wal_segment_bytes, appends roll mid-run under kFsync.
/// Every sealed segment is trimmed to its frames before the next one
/// exists, so a crash copy never shows a zero tail mid-sequence.
TEST_P(RecoveryTest, FsyncRollsSealEverySegmentAtItsLastFrame) {
  ScratchDir dir("recov_fsync_rolls");
  ScratchDir crash("recov_fsync_rolls_copy");
  DecibelOptions options = DurableOptions(GetParam(), wal::SyncMode::kFsync);
  options.wal_segment_bytes = 4096;
  constexpr int kRows = 400;
  {
    ASSERT_OK_AND_ASSIGN(auto db,
                         Decibel::Open(dir.path(), TestSchema(), options));
    for (int i = 0; i < kRows; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
      if (i % 50 == 49) ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    }
    std::vector<std::string> segments = WalSegments(dir.path());
    ASSERT_GE(segments.size(), 3u);
    for (size_t i = 0; i + 1 < segments.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(segments[i]));
      uint64_t frames_end = 0;
      FrameOffsets(data, &frames_end);
      EXPECT_EQ(data.size(), frames_end) << segments[i];
    }
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
  }

  ASSERT_OK_AND_ASSIGN(auto db, Decibel::Open(crash.path(), options));
  auto master = CollectBranch(db.get(), kMasterBranch);
  ASSERT_EQ(master.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(master[i], i);
}

/// The fsyncgate rule end to end: a forked child caps its file size just
/// past the first WAL zero-extension, loads until a batch fails, and
/// checks that the database stays failed. The parent reopens exactly
/// the acknowledged rows.
TEST_P(RecoveryTest, FailedWalWriteKeepsExactlyTheAcknowledgedRows) {
  ScratchDir dir("recov_poison");
  // Lives outside the db directory so recovery never sees it.
  const std::string progress = dir.path() + "_progress";
  RemoveFile(progress).ok();
  constexpr int kBatchRows = 50;

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest machinery, no return — only _exit. The default
    // checkpoint interval is far above 1 MiB, so no checkpoint rolls the
    // segment before the limit bites.
    auto db = OpenDb(dir.path(), wal::SyncMode::kFsync);
    if (!db.ok()) _exit(3);
    const Schema& schema = (*db)->schema();
    std::signal(SIGXFSZ, SIG_IGN);  // EFBIG instead of a fatal signal
    struct rlimit limit;
    limit.rlim_cur = limit.rlim_max = wal::Writer::kZeroExtendBytes + 4096;
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(4);
    int acked = 0;
    for (;; ++acked) {
      WriteBatch batch(&schema);
      for (int i = 0; i < kBatchRows; ++i) {
        const int pk = acked * kBatchRows + i;
        batch.Insert(MakeRecord(schema, pk, pk));
      }
      if (!(*db)->ApplyBatch(kMasterBranch, batch).ok()) break;
      if (acked > 100000) _exit(5);  // the limit never bit
    }
    if (acked == 0) _exit(6);
    // The database stays failed: no later write, commit or checkpoint.
    if ((*db)->InsertInto(kMasterBranch, MakeRecord(schema, -1, 0)).ok()) {
      _exit(7);
    }
    if ((*db)->CommitBranch(kMasterBranch).ok()) _exit(8);
    if ((*db)->CheckpointNow().ok()) _exit(9);
    if (!WriteStringToFile(progress, std::to_string(acked)).ok()) _exit(10);
    _exit(0);
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);
  ASSERT_OK_AND_ASSIGN(std::string note, ReadFileToString(progress));
  const int acked_rows = std::stoi(note) * kBatchRows;

  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(dir.path(), wal::SyncMode::kFsync));
  auto master = CollectBranch(db.get(), kMasterBranch);
  EXPECT_EQ(master.size(), static_cast<size_t>(acked_rows));
  for (int pk = 0; pk < acked_rows; ++pk) {
    ASSERT_EQ(master.count(pk), 1u) << "pk " << pk;
    EXPECT_EQ(master[pk], pk);
  }
  RemoveFile(progress).ok();
}

/// DecibelStats carries the writer's sync counters: a single-threaded
/// kFsync caller pays one fdatasync per logged record (a one-op
/// transaction or a commit), and kFlush and kOff pay none.
TEST_P(RecoveryTest, StatsCountOneWalSyncPerRecordUnderFsyncOnly) {
  for (wal::SyncMode mode :
       {wal::SyncMode::kFsync, wal::SyncMode::kFlush, wal::SyncMode::kOff}) {
    ScratchDir dir("recov_sync_stats");
    ASSERT_OK_AND_ASSIGN(auto db, Decibel::Open(dir.path(), TestSchema(),
                                                DurableOptions(GetParam(), mode)));
    for (int64_t pk = 0; pk < 10; ++pk) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(TestSchema(), pk, 1)));
    }
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    const DecibelStats stats = db->Stats();
    const uint64_t records = mode == wal::SyncMode::kOff ? 0 : 11;
    EXPECT_EQ(stats.wal_last_lsn, records);
    if (mode == wal::SyncMode::kFsync) {
      EXPECT_EQ(stats.wal_syncs, records);
      EXPECT_EQ(stats.wal_syncs_in_flight_max, 1u);
    } else {
      EXPECT_EQ(stats.wal_syncs, 0u);
      EXPECT_EQ(stats.wal_syncs_in_flight_max, 0u);
    }
  }
}

/// Zone-map statistics and the version-first pk index must come back
/// after a kill-style crash: the child loads multi-page, pk-sorted data
/// under compression, commits, and dies with _exit; the parent reopens
/// and proves that predicate scans still skip pages, that the scanned
/// rows are exact, and that point lookups resolve.
TEST_P(RecoveryTest, StatsAndPkIndexSurviveCrashRecovery) {
  ScratchDir dir("recov_stats");
  constexpr int64_t kRows = 8000;  // ~3 pages at 64 KiB / 21 B records

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    DecibelOptions options =
        DurableOptions(GetParam(), wal::SyncMode::kFsync);
    options.compress_pages = true;
    auto db = Decibel::Open(dir.path(), TestSchema(), options);
    if (!db.ok()) _exit(3);
    auto txn = (*db)->Begin(kMasterBranch);
    if (!txn.ok()) _exit(4);
    for (int64_t pk = 0; pk < kRows; ++pk) {
      // pk-correlated c1 keeps page zones selective; c2 is a small
      // domain so sealed pages actually compress.
      Record rec(&(*db)->schema());
      rec.SetPk(pk);
      rec.SetInt32(1, static_cast<int32_t>(pk));
      rec.SetInt32(2, static_cast<int32_t>(pk % 8));
      rec.SetInt32(3, 1);
      if (!txn->Insert(rec).ok()) _exit(5);
    }
    if (!txn->Commit().ok()) _exit(6);
    // Delete near the tail: the tombstone's key stays inside the tail
    // page's pk range, so earlier pages remain pk-disjoint (the
    // version-first page-skip precondition).
    if (!(*db)->DeleteFrom(kMasterBranch, kRows - 10).ok()) _exit(7);
    if (!(*db)->CommitBranch(kMasterBranch).ok()) _exit(8);
    _exit(42);  // kill -9 semantics: no destructors, no final checkpoint
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 42) << "child failed before the crash";

  DecibelOptions options =
      DurableOptions(GetParam(), wal::SyncMode::kFsync);
  options.compress_pages = true;
  ASSERT_OK_AND_ASSIGN(auto db, Decibel::Open(dir.path(), options));

  // Pushdown scan: exact rows, and the recovered zone maps skip pages.
  auto pred =
      Predicate::Compare(db->schema(), "c1", CompareOp::kGe,
                         static_cast<int64_t>(kRows - 50));
  ASSERT_OK(pred.status());
  ASSERT_OK_AND_ASSIGN(
      auto cursor,
      db->NewScan(ScanSpec::Branch(kMasterBranch).Where(*pred)));
  std::map<int64_t, int32_t> rows;
  ScanRow row;
  while (cursor->Next(&row)) rows[row.record.pk()] = row.record.GetInt32(1);
  ASSERT_OK(cursor->status());
  EXPECT_EQ(rows.size(), 49u);  // 50-row range minus the deleted key
  EXPECT_EQ(rows.begin()->first, kRows - 50);
  EXPECT_EQ(rows.count(kRows - 10), 0u);
  EXPECT_GT(cursor->stats().pages_skipped, 0u)
      << "zone maps did not survive recovery";
  EXPECT_GT(cursor->stats().bytes_read, 0u);

  // Point lookups resolve after recovery (for version-first this is the
  // rebuilt pk index, not an ancestry walk), and the delete held.
  ASSERT_OK_AND_ASSIGN(Record rec, db->Get(kMasterBranch, kRows / 2));
  EXPECT_EQ(rec.ref().GetInt32(1), static_cast<int32_t>(kRows / 2));
  EXPECT_TRUE(db->Get(kMasterBranch, kRows - 10).status().IsNotFound());
  EXPECT_TRUE(db->Get(kMasterBranch, kRows + 5).status().IsNotFound());

  // The recovered store keeps accepting writes and stays consistent.
  ASSERT_OK(db->InsertInto(kMasterBranch,
                           MakeRecord(db->schema(), kRows + 100, 7)));
  ASSERT_OK_AND_ASSIGN(rec, db->Get(kMasterBranch, kRows + 100));
  EXPECT_EQ(rec.ref().GetInt32(1), 7);
}

/// Same guarantee through the checkpoint path: a clean close persists
/// the v3 engine meta (per-segment zone-map blobs); reopen must load
/// them rather than rescanning, and skipping must work immediately.
TEST_P(RecoveryTest, ZoneMapsSurviveCleanReopen) {
  ScratchDir dir("recov_stats_clean");
  constexpr int64_t kRows = 8000;
  {
    DecibelOptions options = DurableOptions(GetParam());
    options.compress_pages = true;
    ASSERT_OK_AND_ASSIGN(auto db,
                         Decibel::Open(dir.path(), TestSchema(), options));
    ASSERT_OK_AND_ASSIGN(Transaction txn, db->Begin(kMasterBranch));
    for (int64_t pk = 0; pk < kRows; ++pk) {
      Record rec(&db->schema());
      rec.SetPk(pk);
      rec.SetInt32(1, static_cast<int32_t>(pk));
      ASSERT_OK(txn.Insert(rec));
    }
    ASSERT_OK(txn.Commit());
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
  }  // destructor checkpoints: stats travel via the engine meta

  DecibelOptions options = DurableOptions(GetParam());
  options.compress_pages = true;
  ASSERT_OK_AND_ASSIGN(auto db, Decibel::Open(dir.path(), options));
  auto pred = Predicate::Compare(db->schema(), "c1", CompareOp::kLt, 30);
  ASSERT_OK(pred.status());
  ASSERT_OK_AND_ASSIGN(
      auto cursor,
      db->NewScan(ScanSpec::Branch(kMasterBranch).Where(*pred)));
  std::map<int64_t, int32_t> rows;
  ScanRow row;
  while (cursor->Next(&row)) rows[row.record.pk()] = row.record.GetInt32(1);
  ASSERT_OK(cursor->status());
  EXPECT_EQ(rows.size(), 30u);
  EXPECT_GT(cursor->stats().pages_skipped, 0u);
  ASSERT_OK_AND_ASSIGN(Record rec, db->Get(kMasterBranch, 4321));
  EXPECT_EQ(rec.ref().GetInt32(1), 4321);
}

TEST_P(RecoveryTest, ConcurrentWritersSurviveBackgroundCheckpoints) {
  ScratchDir dir("recov_conc");
  DecibelOptions options = DurableOptions(GetParam());
  options.checkpoint_interval_bytes = 2048;
  constexpr int kThreads = 4;
  constexpr int kTxns = 15;
  constexpr int kRowsPerTxn = 4;
  std::vector<BranchId> branches;
  {
    ASSERT_OK_AND_ASSIGN(auto db,
                         Decibel::Open(dir.path(), TestSchema(), options));
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_OK_AND_ASSIGN(
          BranchId b, db->BranchAt("writer-" + std::to_string(t),
                                   db->graph().Head(kMasterBranch)));
      branches.push_back(b);
    }
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kTxns && !failed.load(); ++i) {
          auto txn = db->Begin(branches[t]);
          if (!txn.ok()) { failed = true; return; }
          for (int r = 0; r < kRowsPerTxn; ++r) {
            const int64_t pk = t * 100000 + i * kRowsPerTxn + r;
            if (!txn->Insert(MakeRecord(db->schema(), pk, t)).ok()) {
              failed = true;
              return;
            }
          }
          Status s = txn->Commit();
          while (s.IsAborted()) s = txn->Commit();  // lock-timeout retry
          if (!s.ok()) { failed = true; return; }
          if (!db->CommitBranch(branches[t]).ok()) { failed = true; return; }
        }
      });
    }
    // Foreground checkpoints racing the writers and the background thread.
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK(db->CheckpointNow());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (auto& th : threads) th.join();
    ASSERT_FALSE(failed.load());
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(CollectBranch(db.get(), branches[t]).size(),
                size_t(kTxns * kRowsPerTxn));
    }
  }
  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(dir.path()));
  for (int t = 0; t < kThreads; ++t) {
    auto rows = CollectBranch(db.get(), branches[t]);
    ASSERT_EQ(rows.size(), size_t(kTxns * kRowsPerTxn)) << "branch " << t;
    for (const auto& [pk, val] : rows) {
      EXPECT_EQ(val, t) << "pk " << pk;
    }
    EXPECT_FALSE(db->IsDirty(branches[t]));
  }
}

/// What the version-control read paths answer about a child branch and
/// its commits; compared before and after a crash.
struct InheritedAnswers {
  std::map<int64_t, std::vector<int32_t>> child_first;   ///< its 1st commit
  std::map<int64_t, std::vector<int32_t>> child_second;  ///< its 2nd commit
  std::map<int64_t, std::vector<int32_t>> grandchild;    ///< its commit
  std::map<int64_t, std::vector<int32_t>> branched_at;   ///< BranchAt(1st)
  /// DiffCommits(master head, child's 2nd commit): pk -> (kind, left c1,
  /// right c1), a missing side as INT32_MIN.
  std::map<int64_t, std::vector<int32_t>> diff;
  std::map<int64_t, std::vector<int32_t>> merged_master;  ///< after Merge
  uint64_t merged_records = 0;
};

/// Reads every answer. BranchAt and Merge write, so the same calls on a
/// database and on its crash copy produce the same ids and the same rows.
InheritedAnswers ReadInheritedAnswers(Decibel* db, CommitId child_first,
                                      CommitId child_second,
                                      CommitId grandchild, BranchId child) {
  InheritedAnswers a;
  auto commit_rows = [db](CommitId c) {
    auto cursor = db->NewScan(ScanSpec::Commit(c));
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    return cursor.ok() ? CollectAll(cursor->get())
                       : std::map<int64_t, std::vector<int32_t>>{};
  };
  a.child_first = commit_rows(child_first);
  a.child_second = commit_rows(child_second);
  a.grandchild = commit_rows(grandchild);
  auto again = db->BranchAt("again", child_first);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  if (again.ok()) a.branched_at = CollectBranchAll(db, *again);
  auto diff = db->DiffCommits(db->graph().Head(kMasterBranch), child_second);
  EXPECT_TRUE(diff.ok()) << diff.status().ToString();
  if (diff.ok()) {
    auto c1 = [](const std::optional<Record>& r) {
      return r.has_value() ? r->ref().GetInt32(1) : INT32_MIN;
    };
    while (const MergeRow* row = (*diff)->Next()) {
      a.diff[row->pk] = {static_cast<int32_t>(row->change), c1(row->left),
                         c1(row->right)};
    }
    EXPECT_OK((*diff)->status());
  }
  auto merged = db->Merge(kMasterBranch, child, MergePolicy::kThreeWayLeft);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  if (merged.ok()) a.merged_records = merged->result.merged_records;
  a.merged_master = CollectBranchAll(db, kMasterBranch);
  return a;
}

TEST_P(RecoveryTest, InheritedColumnsSurviveCheckpointAndReplay) {
  // A child that never writes an inherited segment reads it through its
  // base commit (hybrid keeps no history file of its own there). That
  // reference must survive a checkpoint and the WAL replay after it, for
  // a child committed before the checkpoint and for one branched after.
  ScratchDir dir("recov_inherit");
  ScratchDir crash("recov_inherit_copy");
  CommitId child_first = kInvalidCommit, child_second = kInvalidCommit;
  CommitId grand_commit = kInvalidCommit;
  BranchId child = kInvalidBranch;
  InheritedAnswers before;
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    const Schema& schema = db->schema();
    for (int i = 0; i < 30; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, i, i)));
    }
    ASSERT_OK_AND_ASSIGN(CommitId base, db->CommitBranch(kMasterBranch));
    ASSERT_OK_AND_ASSIGN(child, db->BranchAt("child", base));
    // Only new keys: the child's writes land in its own head segment.
    for (int i = 100; i < 104; ++i) {
      ASSERT_OK(db->InsertInto(child, MakeRecord(schema, i, i)));
    }
    ASSERT_OK_AND_ASSIGN(child_first, db->CommitBranch(child));
    ASSERT_OK(db->UpdateIn(kMasterBranch, MakeRecord(schema, 3, 333)));
    ASSERT_OK(db->DeleteFrom(kMasterBranch, 4));
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    ASSERT_OK(db->Flush());  // checkpoint

    // After the checkpoint: the child now writes an inherited key, a
    // grandchild branches from the child's first commit, master moves.
    ASSERT_OK(db->InsertInto(child, MakeRecord(schema, 104, 104)));
    ASSERT_OK(db->UpdateIn(child, MakeRecord(schema, 5, 555)));
    ASSERT_OK_AND_ASSIGN(child_second, db->CommitBranch(child));
    ASSERT_OK_AND_ASSIGN(BranchId grand, db->BranchAt("grand", child_first));
    ASSERT_OK(db->InsertInto(grand, MakeRecord(schema, 200, 200)));
    ASSERT_OK_AND_ASSIGN(grand_commit, db->CommitBranch(grand));
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, 50, 50)));
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    // Crash copy: the checkpoint plus the WAL written after it.
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
    before = ReadInheritedAnswers(db.get(), child_first, child_second,
                                  grand_commit, child);
  }

  // The answers themselves are right, not merely stable.
  EXPECT_EQ(before.child_first.size(), 34u);
  EXPECT_EQ(before.child_first.at(3)[0], 3);
  EXPECT_EQ(before.child_first.count(4), 1u);
  EXPECT_EQ(before.child_second.size(), 35u);
  EXPECT_EQ(before.child_second.at(5)[0], 555);
  EXPECT_EQ(before.grandchild.size(), 35u);
  EXPECT_EQ(before.grandchild.at(5)[0], 5);
  EXPECT_EQ(before.grandchild.at(200)[0], 200);
  EXPECT_EQ(before.branched_at, before.child_first);
  EXPECT_FALSE(before.diff.empty());
  EXPECT_EQ(before.merged_master.size(), 35u);  // 30 - pk4 + 50 + 100..104
  EXPECT_EQ(before.merged_master.at(3)[0], 333);
  EXPECT_EQ(before.merged_master.at(5)[0], 555);
  EXPECT_EQ(before.merged_master.count(4), 0u);

  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(crash.path()));
  const InheritedAnswers after = ReadInheritedAnswers(
      db.get(), child_first, child_second, grand_commit, child);
  EXPECT_EQ(after.child_first, before.child_first);
  EXPECT_EQ(after.child_second, before.child_second);
  EXPECT_EQ(after.grandchild, before.grandchild);
  EXPECT_EQ(after.branched_at, before.branched_at);
  EXPECT_EQ(after.diff, before.diff);
  EXPECT_EQ(after.merged_records, before.merged_records);
  EXPECT_EQ(after.merged_master, before.merged_master);

  // And once more from a clean checkpoint of the recovered state.
  db.reset();
  ASSERT_OK_AND_ASSIGN(db, ReopenDb(crash.path()));
  auto child_first_rows = db->NewScan(ScanSpec::Commit(child_first));
  ASSERT_OK(child_first_rows.status());
  EXPECT_EQ(CollectAll(child_first_rows->get()), before.child_first);
}

TEST_P(RecoveryTest, UncommittedWritesAtCheckpointReachTheNextCommits) {
  // A checkpoint can capture writes no commit recorded yet; the WAL
  // replay after it does not see them again. The commits that follow the
  // reopen — the parent's own, and those of a child forked at its head —
  // must still record them: each commit reads back as the live rows its
  // branch had when it committed.
  ScratchDir dir("recov_uncommitted");
  ScratchDir crash("recov_uncommitted_copy");
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    const Schema& schema = db->schema();
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, i, i)));
    }
    ASSERT_OK_AND_ASSIGN(CommitId base, db->CommitBranch(kMasterBranch));
    // Forking at the head freezes master's segment, so the writes below
    // dirty both that older segment and master's new head.
    ASSERT_OK(db->BranchAt("side", base).status());
    for (int i = 20; i < 25; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, i, i)));
    }
    ASSERT_OK(db->UpdateIn(kMasterBranch, MakeRecord(schema, 3, 333)));
    ASSERT_OK(db->DeleteFrom(kMasterBranch, 4));
    ASSERT_OK(db->Flush());  // checkpoint with the writes uncommitted
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
  }

  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(crash.path()));
  const auto live_master = CollectBranchAll(db.get(), kMasterBranch);
  ASSERT_EQ(live_master.size(), 24u);  // 0..24 without pk4
  EXPECT_EQ(live_master.at(3)[0], 333);
  auto commit_rows = [&db](CommitId c) {
    auto cursor = db->NewScan(ScanSpec::Commit(c));
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    return cursor.ok() ? CollectAll(cursor->get())
                       : std::map<int64_t, std::vector<int32_t>>{};
  };

  Session session = db->NewSession();
  ASSERT_OK(db->Use(&session, kMasterBranch));
  ASSERT_OK_AND_ASSIGN(BranchId child, db->Branch("child", &session));
  EXPECT_EQ(CollectBranchAll(db.get(), child), live_master);
  ASSERT_OK_AND_ASSIGN(CommitId child_commit, db->CommitBranch(child));
  EXPECT_EQ(commit_rows(child_commit), live_master);
  ASSERT_OK(db->InsertInto(child, MakeRecord(db->schema(), 100, 100)));
  ASSERT_OK_AND_ASSIGN(CommitId child_second, db->CommitBranch(child));
  const auto live_child = CollectBranchAll(db.get(), child);
  EXPECT_EQ(commit_rows(child_second), live_child);
  ASSERT_OK_AND_ASSIGN(BranchId again, db->BranchAt("again", child_commit));
  EXPECT_EQ(CollectBranchAll(db.get(), again), live_master);

  ASSERT_OK_AND_ASSIGN(CommitId master_commit,
                       db->CommitBranch(kMasterBranch));
  EXPECT_EQ(commit_rows(master_commit), live_master);

  // The same commits read the same after a clean reopen.
  db.reset();
  ASSERT_OK_AND_ASSIGN(db, ReopenDb(crash.path()));
  EXPECT_EQ(commit_rows(child_commit), live_master);
  EXPECT_EQ(commit_rows(child_second), live_child);
  EXPECT_EQ(commit_rows(master_commit), live_master);
}

TEST_P(RecoveryTest, UncommittedWritesStayDirtyAcrossReopen) {
  // A branch with writes no commit recorded must still be dirty after a
  // reopen, so Branch() commits it first and the child's base commit
  // holds every row the child starts with.
  ScratchDir dir("recov_dirty");
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path()));
    for (int i = 0; i < 5; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
    ASSERT_OK(db->CommitBranch(kMasterBranch).status());
    for (int i = 5; i < 8; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(db->schema(), i, i)));
    }
  }  // close: the final checkpoint holds the 3 uncommitted writes

  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(dir.path()));
  EXPECT_TRUE(db->IsDirty(kMasterBranch));
  Session session = db->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId child, db->Branch("child", &session));
  EXPECT_FALSE(db->IsDirty(kMasterBranch));
  ASSERT_OK_AND_ASSIGN(BranchInfo info, db->graph().GetBranch(child));
  ASSERT_OK_AND_ASSIGN(auto base,
                       db->NewScan(ScanSpec::Commit(info.base_commit)));
  EXPECT_EQ(CollectAll(base.get()).size(), 8u);
  EXPECT_EQ(CollectBranch(db.get(), child).size(), 8u);
}

TEST_P(RecoveryTest, SyncOffCrashCopyReopensAtTheLastFlush) {
  // kOff logs nothing: a crash copy taken after a Flush and more work
  // must reopen exactly at the Flush. Every branch and commit the graph
  // lists scans to its contents then, and nothing later appears.
  ScratchDir dir("recov_off");
  ScratchDir crash("recov_off_copy");
  using Rows = std::map<int64_t, std::vector<int32_t>>;
  std::map<BranchId, Rows> branch_rows;
  std::map<CommitId, Rows> commit_rows;
  size_t branches_at_flush = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto db, OpenDb(dir.path(), wal::SyncMode::kOff));
    const Schema& schema = db->schema();
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, i, i)));
    }
    ASSERT_OK_AND_ASSIGN(CommitId c1, db->CommitBranch(kMasterBranch));
    ASSERT_OK_AND_ASSIGN(BranchId dev, db->BranchAt("dev", c1));
    ASSERT_OK(db->InsertInto(dev, MakeRecord(schema, 100, 100)));
    ASSERT_OK(db->UpdateIn(dev, MakeRecord(schema, 3, 333)));
    ASSERT_OK(db->CommitBranch(dev).status());
    ASSERT_OK(db->Flush());
    for (const BranchInfo& b : db->ListBranches()) {
      branch_rows[b.id] = CollectBranchAll(db.get(), b.id);
    }
    for (CommitId c = 0; c < 64; ++c) {
      if (!db->graph().HasCommit(c)) continue;
      ASSERT_OK_AND_ASSIGN(auto cursor, db->NewScan(ScanSpec::Commit(c)));
      commit_rows[c] = CollectAll(cursor.get());
    }
    branches_at_flush = db->ListBranches().size();

    // After the Flush: more rows and commits on both branches, a fork at
    // master's new head, and a retire.
    for (int i = 20; i < 30; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, i, i)));
    }
    ASSERT_OK(db->DeleteFrom(kMasterBranch, 4));
    ASSERT_OK_AND_ASSIGN(CommitId c3, db->CommitBranch(kMasterBranch));
    ASSERT_OK(db->BranchAt("late", c3).status());
    ASSERT_OK(db->InsertInto(dev, MakeRecord(schema, 101, 101)));
    ASSERT_OK(db->CommitBranch(dev).status());
    ASSERT_OK(db->RetireBranch(dev));
    EXPECT_EQ(db->Stats().wal_bytes_appended, 0u);  // nothing was logged
    ASSERT_OK(CopyDirRecursive(dir.path(), crash.path()));
  }

  ASSERT_OK_AND_ASSIGN(auto db, ReopenDb(crash.path(), wal::SyncMode::kOff));
  const std::vector<BranchInfo> branches = db->ListBranches();
  ASSERT_EQ(branches.size(), branches_at_flush);
  for (const BranchInfo& b : branches) {
    EXPECT_TRUE(b.active) << b.name;
    EXPECT_EQ(CollectBranchAll(db.get(), b.id), branch_rows[b.id]) << b.name;
  }
  EXPECT_TRUE(db->FindBranchByName("late").status().IsNotFound());
  for (CommitId c = 0; c < 64; ++c) {
    EXPECT_EQ(db->graph().HasCommit(c), commit_rows.count(c) != 0) << c;
    if (!db->graph().HasCommit(c)) continue;
    ASSERT_OK_AND_ASSIGN(auto cursor, db->NewScan(ScanSpec::Commit(c)));
    EXPECT_EQ(CollectAll(cursor.get()), commit_rows[c]) << "commit " << c;
    // A fork at the commit (at-head for each branch's head) starts from
    // exactly the commit's rows.
    ASSERT_OK_AND_ASSIGN(BranchId probe,
                         db->BranchAt("probe" + std::to_string(c), c));
    EXPECT_EQ(CollectBranchAll(db.get(), probe), commit_rows[c])
        << "fork at " << c;
  }
}

TEST_P(RecoveryTest, OpenRefusesADirectoryWithoutAManifest) {
  // A graph.bin with no MANIFEST-* is a database from the release that
  // persisted without checkpoints. Open must refuse it rather than
  // initialize fresh over its data files.
  ScratchDir dir("recov_oldformat");
  const std::string graph = JoinPath(dir.path(), "graph.bin");
  const std::string engine_dir =
      JoinPath(dir.path(), EngineTypeName(GetParam()));
  const std::string data = JoinPath(
      engine_dir, GetParam() == EngineType::kTupleFirst ? "heap.0.dbhf"
                                                        : "seg_0.dbhf");
  ASSERT_OK(WriteStringToFile(graph, "old graph"));
  ASSERT_OK(CreateDir(engine_dir));
  ASSERT_OK(WriteStringToFile(data, "old rows"));

  const Status s = OpenDb(dir.path()).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find(dir.path()), std::string::npos) << s.ToString();
  ASSERT_OK_AND_ASSIGN(std::string kept, ReadFileToString(data));
  EXPECT_EQ(kept, "old rows");
  EXPECT_TRUE(FileExists(graph));
  EXPECT_FALSE(FileExists(wal::CurrentFilePath(dir.path())));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, RecoveryTest,
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
