/// Seeded mutation tests for every decoder that reads bytes from disk or
/// the wire. Each target starts from a corpus of valid encodings, checks
/// that the corpus decodes, then feeds the decoder corrupted copies: bit
/// flips, truncations, splices of two encodings and bytes set to varint
/// and sign boundaries. A decoder must reject or accept each one without
/// crashing, hanging or touching memory it does not own; the sanitizer
/// builds turn any such touch into a failure. Decoded objects are
/// re-encoded, so whatever a decoder accepts must be internally
/// consistent too. The seeds are fixed: a failure reproduces exactly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/bitmap_index.h"
#include "bitmap/commit_history.h"
#include "columnar/page_codec.h"
#include "columnar/zone_map.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/io.h"
#include "common/lz.h"
#include "common/random.h"
#include "common/rle.h"
#include "core/decibel.h"
#include "net/protocol.h"
#include "query/vquel.h"
#include "storage/record.h"
#include "storage/schema.h"
#include "test_util.h"
#include "txn/write_batch.h"
#include "version/version_graph.h"
#include "wal/manifest.h"
#include "wal/wal_format.h"

namespace decibel {
namespace {

using testing_util::ScratchDir;

/// Mutated inputs per decoder target; the manifest, read from a file,
/// takes fewer.
constexpr int kMutations = 20000;
constexpr int kFileMutations = 2000;

/// Produces corrupted copies of corpus entries from a fixed seed.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(const std::vector<std::string>& corpus) {
    std::string s = corpus[rng_.Uniform(corpus.size())];
    switch (rng_.Uniform(4)) {
      case 0:  // one to four bit flips
        for (uint64_t n = 1 + rng_.Uniform(4); n > 0 && !s.empty(); --n) {
          s[rng_.Uniform(s.size())] ^= static_cast<char>(1 << rng_.Uniform(8));
        }
        break;
      case 1:  // truncation
        s.resize(rng_.Uniform(s.size() + 1));
        break;
      case 2: {  // a prefix of one encoding joined to a suffix of another
        const std::string& other = corpus[rng_.Uniform(corpus.size())];
        s = s.substr(0, rng_.Uniform(s.size() + 1)) +
            other.substr(rng_.Uniform(other.size() + 1));
        break;
      }
      default: {  // a byte at a varint or sign boundary
        static constexpr char kBoundary[] = {'\x00', '\x01', '\x7f', '\x80',
                                             '\xff'};
        if (!s.empty()) {
          s[rng_.Uniform(s.size())] = kBoundary[rng_.Uniform(5)];
        }
      }
    }
    return s;
  }

  uint64_t Uniform(uint64_t n) { return rng_.Uniform(n); }

 private:
  Random rng_;
};

/// Checks that every corpus entry decodes, then runs \p mutations
/// corrupted inputs through \p decode (which returns whether the input
/// decoded).
template <typename Decode>
void MutateAndDecode(uint64_t seed, const std::vector<std::string>& corpus,
                     Decode&& decode, int mutations = kMutations) {
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(decode(corpus[i])) << "corpus entry " << i;
  }
  Mutator mutator(seed);
  for (int i = 0; i < mutations; ++i) decode(mutator.Mutate(corpus));
}

/// pk + int32 + int64 + double + string, so every column codec is used.
Schema MixedSchema() {
  return Schema::Make({{"pk", FieldType::kInt64, 8},
                       {"c1", FieldType::kInt32, 4},
                       {"c2", FieldType::kInt64, 8},
                       {"c3", FieldType::kDouble, 8},
                       {"c4", FieldType::kString, 8}})
      .MoveValueUnsafe();
}

Record MixedRecord(const Schema& schema, int64_t pk) {
  Record r(&schema);
  r.SetPk(pk);
  r.SetInt32(1, static_cast<int32_t>(pk % 7));
  r.SetInt64(2, pk / 5);
  r.SetDouble(3, (pk % 3) * 0.25);
  r.SetString(4, pk % 2 == 0 ? "even" : "odd");
  if (pk % 13 == 0) r.SetTombstone(true);
  return r;
}

/// \p count row-major MixedRecords starting at \p first.
std::string MixedPayload(const Schema& schema, int64_t first, int count) {
  std::string payload;
  for (int64_t pk = first; pk < first + count; ++pk) {
    payload.append(MixedRecord(schema, pk).data().ToString());
  }
  return payload;
}

// ------------------------------------------------------------ structures

TEST(DecoderMutationTest, Bitmap) {
  std::vector<std::string> corpus;
  Random rng(1);
  for (uint64_t bits : {0, 1, 64, 1000, 70000}) {
    Bitmap b(bits);
    for (uint64_t i = 0; i < bits / 3; ++i) b.Set(rng.Uniform(bits));
    b.EncodeTo(&corpus.emplace_back());
  }
  MutateAndDecode(11, corpus, [](const std::string& bytes) {
    Slice in(bytes);
    Bitmap b;
    if (!Bitmap::DecodeFrom(&in, &b)) return false;
    std::string again;
    b.EncodeTo(&again);
    return true;
  });
}

TEST(DecoderMutationTest, BitmapIndex) {
  std::vector<std::string> corpus;
  for (BitmapOrientation orientation : {BitmapOrientation::kBranchOriented,
                                        BitmapOrientation::kTupleOriented}) {
    auto index = BitmapIndex::Make(orientation);
    index->AddBranch(0);
    index->AppendTuples(300);
    for (uint64_t t = 0; t < 300; t += 3) index->Set(t, 0, true);
    index->CloneBranch(0, 1);
    for (uint64_t t = 1; t < 300; t += 7) index->Set(t, 1, true);
    index->EncodeTo(&corpus.emplace_back());
  }
  MutateAndDecode(12, corpus, [](const std::string& bytes) {
    Slice in(bytes);
    auto index = BitmapIndex::DecodeFrom(&in);
    if (!index.ok()) return false;
    std::string again;
    (*index)->EncodeTo(&again);
    return true;
  });
}

TEST(DecoderMutationTest, VersionGraph) {
  VersionGraph graph;
  ASSERT_TRUE(graph.Init().ok());
  ASSERT_OK_AND_ASSIGN(CommitId c1, graph.AddCommit(kMasterBranch));
  ASSERT_OK_AND_ASSIGN(BranchId dev, graph.CreateBranch("dev", c1));
  ASSERT_OK_AND_ASSIGN(BranchId old, graph.CreateBranch("old", c1));
  ASSERT_TRUE(graph.AddCommit(dev).ok());
  ASSERT_TRUE(graph.AddCommit(kMasterBranch).ok());
  ASSERT_TRUE(graph.AddMergeCommit(kMasterBranch, dev).ok());
  graph.SetActive(old, false);
  std::vector<std::string> corpus(2);
  graph.EncodeTo(&corpus[0]);
  VersionGraph fresh;
  ASSERT_TRUE(fresh.Init().ok());
  fresh.EncodeTo(&corpus[1]);
  MutateAndDecode(13, corpus, [](const std::string& bytes) {
    Slice in(bytes);
    auto decoded = VersionGraph::DecodeFrom(&in);
    if (!decoded.ok()) return false;
    std::string again;
    decoded->EncodeTo(&again);
    return true;
  });
}

TEST(DecoderMutationTest, ZoneMap) {
  const Schema schema = MixedSchema();
  std::vector<std::string> corpus;
  for (int rows : {0, 1, 40}) {
    columnar::ZoneMap zone(schema.num_columns());
    const std::string payload = MixedPayload(schema, 5, rows);
    zone.UpdateBatch(schema, payload.data(), rows);
    zone.EncodeTo(&corpus.emplace_back());
  }
  MutateAndDecode(14, corpus, [](const std::string& bytes) {
    Slice in(bytes);
    auto zone = columnar::ZoneMap::DecodeFrom(&in);
    if (!zone.ok()) return false;
    std::string again;
    zone->EncodeTo(&again);
    return true;
  });
}

TEST(DecoderMutationTest, Schema) {
  std::vector<std::string> corpus;
  MixedSchema().EncodeTo(&corpus.emplace_back());
  Schema::MakeBenchmark(4).EncodeTo(&corpus.emplace_back());
  MutateAndDecode(15, corpus, [](const std::string& bytes) {
    Slice in(bytes);
    auto schema = Schema::DecodeFrom(&in);
    if (!schema.ok()) return false;
    std::string again;
    schema->EncodeTo(&again);
    return true;
  });
}

// ---------------------------------------------------------------- codecs

TEST(DecoderMutationTest, Rle) {
  std::vector<std::string> corpus;
  Random rng(2);
  for (int shape = 0; shape < 4; ++shape) {
    std::string plain;
    for (int i = 0; i < 600; ++i) {
      const bool run = shape == 1 || (shape == 2 && i % 50 < 30);
      plain.push_back(run ? 'r' : static_cast<char>(rng.Uniform(256)));
    }
    if (shape == 3) plain.clear();
    rle::Encode(plain, &corpus.emplace_back());
  }
  // The longest corpus entry decodes to 600 bytes; real callers pass
  // the exact length they expect.
  constexpr uint64_t kMaxSize = 4096;
  Mutator targets(21);
  MutateAndDecode(22, corpus, [&](const std::string& bytes) {
    const bool decoded = rle::Decode(bytes, kMaxSize).ok();
    std::string target(targets.Uniform(700), '\x5a');
    const bool xored = rle::DecodeXorInto(bytes, kMaxSize, &target).ok();
    return decoded && xored;
  });
}

TEST(DecoderMutationTest, Lz) {
  std::vector<std::string> corpus;
  std::string text;
  for (int i = 0; i < 80; ++i) text += "branch " + std::to_string(i % 9) + ";";
  Random rng(3);
  std::string noise;
  for (int i = 0; i < 300; ++i) noise.push_back(static_cast<char>(rng.Next()));
  for (const std::string& plain : {text, noise, std::string("aaaaaaaaaaaa")}) {
    lz::Compress(plain, &corpus.emplace_back());
  }
  MutateAndDecode(23, corpus, [](const std::string& bytes) {
    return lz::Decompress(bytes, /*max_size=*/4096).ok();
  });
}

TEST(DecoderMutationTest, ColumnarAndLzPages) {
  const Schema schema = MixedSchema();
  constexpr uint32_t kRows = 120;
  const std::string payload = MixedPayload(schema, 100, kRows);
  std::string columnar_page;
  ASSERT_EQ(columnar::EncodePage(schema, payload.data(), kRows,
                                 &columnar_page),
            columnar::PageFormat::kColumnar);
  std::string lz_page;
  lz::Compress(payload, &lz_page);
  std::vector<Comparison> cmps(2);
  cmps[0].column = 1;
  cmps[0].op = CompareOp::kGe;
  cmps[0].int_value = 3;
  cmps[1].column = 4;
  cmps[1].op = CompareOp::kEq;
  cmps[1].string_value = "odd";
  for (columnar::PageFormat format :
       {columnar::PageFormat::kColumnar, columnar::PageFormat::kLz}) {
    const std::vector<std::string> corpus{
        format == columnar::PageFormat::kColumnar ? columnar_page : lz_page};
    MutateAndDecode(24 + static_cast<int>(format), corpus,
                    [&](const std::string& bytes) {
                      bool exact = false;
                      columnar::CountMatchesCompressed(schema, format, bytes,
                                                       kRows, cmps, &exact);
                      std::string decoded;
                      return columnar::DecodePage(schema, format, bytes, kRows,
                                                  &decoded)
                          .ok();
                    });
  }
}

// ------------------------------------------------------------ WAL bodies

TEST(DecoderMutationTest, WalBodies) {
  const Schema schema = Schema::MakeBenchmark(2);
  WriteBatch batch(&schema);
  for (int64_t pk = 0; pk < 6; ++pk) {
    batch.Insert(testing_util::MakeRecord(schema, pk, 7));
  }
  batch.Update(testing_util::MakeRecord(schema, 2, 9));
  batch.Delete(4);

  std::vector<std::string> batches(1), commits(1), branches(1), merges(1),
      retires(1);
  wal::EncodeBatchBody(&batches[0], 3, batch);
  wal::CommitBody commit;
  commit.branch = 3;
  commit.commit = 17;
  commit.parents = {15, 16};
  wal::EncodeCommitBody(&commits[0], commit);
  wal::BranchBody branch;
  branch.child = 4;
  branch.name = "feature";
  branch.base = 17;
  branch.parent_branch = 3;
  branch.head = 17;
  wal::EncodeBranchBody(&branches[0], branch);
  wal::MergeBody merge;
  merge.into = 0;
  merge.from = 3;
  merge.lca = 12;
  merge.commit = 18;
  merge.policy = MergePolicy::kThreeWayRight;
  merge.parents = {14, 17};
  merge.batch_body = batches[0];
  wal::EncodeMergeBody(&merges[0], merge);
  wal::EncodeRetireBody(&retires[0], 4);

  MutateAndDecode(31, batches, [&](const std::string& bytes) {
    BranchId b;
    WriteBatch out(&schema);
    return wal::DecodeBatchBody(bytes, &b, &out).ok();
  });
  MutateAndDecode(32, commits, [](const std::string& bytes) {
    wal::CommitBody out;
    return wal::DecodeCommitBody(bytes, &out).ok();
  });
  MutateAndDecode(33, branches, [](const std::string& bytes) {
    wal::BranchBody out;
    return wal::DecodeBranchBody(bytes, &out).ok();
  });
  MutateAndDecode(34, merges, [&](const std::string& bytes) {
    wal::MergeBody out;
    if (!wal::DecodeMergeBody(bytes, &out).ok()) return false;
    BranchId b;
    WriteBatch carried(&schema);
    return wal::DecodeBatchBody(out.batch_body, &b, &carried).ok();
  });
  MutateAndDecode(35, retires, [](const std::string& bytes) {
    BranchId out;
    return wal::DecodeRetireBody(bytes, &out).ok();
  });
}

// ------------------------------------------------------------------ wire

TEST(DecoderMutationTest, WireFramesAndMessages) {
  net::WireResult result;
  result.output = "pk | c1\n1 | 10\n";
  result.rows = 2;
  result.columns = {{"pk", FieldType::kInt64, 8},
                    {"c1", FieldType::kInt32, 4},
                    {"c3", FieldType::kDouble, 8},
                    {"c4", FieldType::kString, 8}};
  result.typed_rows.resize(2, std::vector<net::ResultCell>(4));
  result.typed_rows[0][3].s = "alpha";
  result.typed_rows[1][2].d = 2.5;
  net::WireResult error;
  error.code = StatusCode::kNotFound;
  error.message = "no branch";
  std::vector<std::string> results(2);
  net::EncodeResult(&results[0], result);
  net::EncodeResult(&results[1], error);

  net::Notification note;
  note.branch = 2;
  note.branch_name = "dev";
  note.commit = 9;
  note.records = 40;
  note.merge = true;
  std::vector<std::string> notes(1);
  net::EncodeNotify(&notes[0], note);

  std::vector<std::string> frames(3);
  net::WrapFrame(&frames[0], results[0]);
  net::WrapFrame(&frames[1], notes[0]);
  net::WrapFrame(&frames[2], "");

  MutateAndDecode(41, frames, [](const std::string& bytes) {
    std::string payload;
    auto consumed = net::TryDecodeFrame(bytes, 1 << 16, &payload);
    if (!consumed.ok() || *consumed == 0) return false;
    return net::PayloadType(payload).ok() || payload.empty();
  });
  MutateAndDecode(42, results, [](const std::string& bytes) {
    net::WireResult out;
    return net::DecodeResult(bytes, &out).ok();
  });
  MutateAndDecode(43, notes, [](const std::string& bytes) {
    net::Notification out;
    return net::DecodeNotify(bytes, &out).ok();
  });
}

// -------------------------------------------------------------- manifest

TEST(DecoderMutationTest, Manifest) {
  ScratchDir dir("decoder_manifest");
  wal::ManifestData data;
  data.version = 7;
  data.checkpoint_tag = wal::CheckpointTag(7);
  data.checkpoint_lsn = 1234;
  data.next_lsn = 1300;
  data.wal_start_seq = 3;
  MixedSchema().EncodeTo(&data.schema);
  data.engine = EngineType::kVersionFirst;
  ASSERT_OK(wal::WriteManifest(dir.path(), data, /*sync=*/false));
  ASSERT_OK_AND_ASSIGN(
      std::string file,
      ReadFileToString(wal::ManifestFilePath(dir.path(), 7)));
  ASSERT_GT(file.size(), 4u);

  const std::string path = JoinPath(dir.path(), "MANIFEST-mutated");
  auto read = [&](const std::string& bytes) {
    EXPECT_OK(WriteStringToFile(path, bytes));
    return wal::ReadManifestFile(path).ok();
  };
  // Raw corruption: the trailing CRC must catch every bit flip.
  MutateAndDecode(51, {file}, read, kFileMutations);
  Mutator flips(52);
  for (int i = 0; i < 200; ++i) {
    std::string bytes = file;
    bytes[flips.Uniform(bytes.size())] ^=
        static_cast<char>(1 << flips.Uniform(8));
    EXPECT_FALSE(read(bytes)) << "bit flip " << i << " went undetected";
  }
  // Corrupt bodies under a valid CRC reach the field parser itself.
  const std::vector<std::string> bodies{file.substr(0, file.size() - 4)};
  auto read_sealed = [&](const std::string& body) {
    std::string sealed = body;
    PutFixed32(&sealed, MaskCrc(Crc32(body)));
    return read(sealed);
  };
  MutateAndDecode(53, bodies, read_sealed, kFileMutations);
}

TEST(DecoderMutationTest, CommitHistory) {
  ScratchDir dir("decoder_history");
  // Two histories over a universe of kUniverse records: a long one (its
  // composite records included) and a short one, as splice partners.
  constexpr uint64_t kUniverse = 5000;
  std::vector<std::string> corpus;
  Random rng(6);
  for (int commits : {2 * static_cast<int>(CommitHistory::kCompositeEvery) + 3,
                      3}) {
    const std::string path =
        JoinPath(dir.path(), "h" + std::to_string(commits) + ".hist");
    ASSERT_OK_AND_ASSIGN(auto history, CommitHistory::Create(path));
    Bitmap bits;
    for (int c = 1; c <= commits; ++c) {
      for (int i = 0; i < 40; ++i) bits.SetTo(rng.Uniform(kUniverse), i % 3);
      ASSERT_OK(history->AppendCommit(c, bits));
    }
    ASSERT_OK_AND_ASSIGN(corpus.emplace_back(), ReadFileToString(path));
  }

  // A record header's nbits sits outside its CRC: a huge one must fail
  // the checkout, not size an allocation.
  {
    Slice in(corpus[1]);
    in.RemovePrefix(1);  // layer
    uint64_t seq, nbits, len;
    ASSERT_TRUE(GetVarint64(&in, &seq) && GetVarint64(&in, &nbits) &&
                GetVarint64(&in, &len));
    std::string forged(1, corpus[1][0]);
    PutVarint64(&forged, seq);
    PutVarint64(&forged, uint64_t{1} << 62);
    PutVarint64(&forged, len);
    forged.append(in.data(), in.size());
    const std::string path = JoinPath(dir.path(), "forged.hist");
    ASSERT_OK(WriteStringToFile(path, forged));
    ASSERT_OK_AND_ASSIGN(auto history, CommitHistory::Open(path));
    EXPECT_TRUE(history->Checkout(seq, kUniverse).status().IsCorruption());
  }

  const std::string path = JoinPath(dir.path(), "mutated.hist");
  auto open_and_checkout = [&](const std::string& bytes) {
    EXPECT_OK(WriteStringToFile(path, bytes));
    auto history = CommitHistory::Open(path);
    if (!history.ok()) return false;
    for (uint64_t seq = 0; seq <= 40; seq += 3) {
      auto bits = (*history)->Checkout(seq, kUniverse);
      if (bits.ok()) {
        EXPECT_LE(bits->size(), kUniverse);
      }
    }
    return true;
  };
  MutateAndDecode(61, corpus, open_and_checkout, kFileMutations);
}

// ----------------------------------------------------------------- VQuel

TEST(DecoderMutationTest, VquelStatements) {
  const std::vector<std::string> corpus{
      "INSERT master 1 10 100",
      "UPDATE master 1 11 101",
      "DELETE master 1",
      "COMMIT master",
      "BRANCH dev FROM master",
      "BEGIN dev",
      "INSERT dev 3 30 300",
      "COMMIT TX",
      "ABORT",
      "SCAN dev WHERE c1 > 5",
      "SCAN COMMIT 1",
      "SELECT pk, c1 FROM dev WHERE c1 >= 10 LIMIT 5",
      "SELECT * FROM COMMIT 2 WHERE c2 != 3",
      "DIFF dev master",
      "DIFF COMMIT 1 2",
      "JOIN master dev WHERE c1 < 50",
      "HEADS WHERE c2 = 100",
      "MERGE master dev THREEWAY LEFT",
      "MERGE dev master TWOWAY RIGHT THEIRS PREVIEW",
      "BRANCHES",
      "LOG master",
      "RETIRE dev",
      "INFO",
      "SUBSCRIBE master",
  };
  ScratchDir dir("decoder_vquel");
  DecibelOptions options;
  options.sync_mode = wal::SyncMode::kOff;
  ASSERT_OK_AND_ASSIGN(auto db, Decibel::Open(dir.path(),
                                              Schema::MakeBenchmark(3),
                                              options));
  vquel::Interpreter interp(db.get());
  // A valid statement may still fail on the database's state (SUBSCRIBE
  // always does in-process), so the corpus is run, not asserted.
  int executed = 0;
  for (const std::string& statement : corpus) {
    executed += interp.Execute(statement).ok();
  }
  EXPECT_GT(executed, 0);
  Mutator mutator(61);
  for (int i = 0; i < kMutations / 4; ++i) {
    executed += interp.Execute(mutator.Mutate(corpus)).ok();
  }
  // The database still answers afterwards.
  EXPECT_TRUE(interp.Execute("BRANCHES").ok());
}

}  // namespace
}  // namespace decibel
