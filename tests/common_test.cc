/// Unit tests for the common substrate: Status/Result, coding, checksums,
/// hashing, RLE, LZ, PRNG and file I/O.

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/lz.h"
#include "common/random.h"
#include "common/result.h"
#include "common/rle.h"
#include "common/status.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::ScratchDir;

// ------------------------------------------------------------------ Status

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, CopyAndMove) {
  Status s = Status::Conflict("merge clash");
  Status copy = s;
  EXPECT_TRUE(copy.IsConflict());
  EXPECT_EQ(copy, s);
  Status moved = std::move(copy);
  EXPECT_TRUE(moved.IsConflict());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 10; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("disk gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).MoveValueUnsafe();
  EXPECT_EQ(*p, 7);
}

// ------------------------------------------------------------------ coding

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Slice in(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const uint64_t cases[] = {0,       1,          127,        128,
                            16383,   16384,      UINT32_MAX, 1ull << 40,
                            UINT64_MAX};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
    Slice in(buf);
    uint64_t out;
    ASSERT_TRUE(GetVarint64(&in, &out)) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, static_cast<uint64_t>(UINT32_MAX) + 1);
  Slice in(buf);
  uint32_t out;
  EXPECT_FALSE(GetVarint32(&in, &out));
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t out;
  EXPECT_FALSE(GetVarint64(&in, &out));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

TEST(CodingTest, ZigZag) {
  const int64_t cases[] = {0, -1, 1, -2, INT64_MAX, INT64_MIN, -123456789};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

// ------------------------------------------------------------- crc & hash

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (IEEE).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, MaskRoundTrip) {
  const uint32_t crc = Crc32("some data");
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  EXPECT_NE(MaskCrc(crc), crc);
}

TEST(Crc32Test, DetectsCorruption) {
  std::string data = "the quick brown fox";
  const uint32_t crc = Crc32(data);
  data[3] ^= 1;
  EXPECT_NE(Crc32(data), crc);
}

/// Bit-at-a-time CRC-32: the definition both fast paths must reproduce.
uint32_t Crc32Bitwise(Slice data) {
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < data.size(); ++i) {
    c ^= static_cast<uint8_t>(data[i]);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1)));
  }
  return c ^ 0xffffffffu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Random rng(seed);
  std::string out(n, '\0');
  for (char& ch : out) ch = static_cast<char>(rng.Next());
  return out;
}

/// Runs every case on the carry-less-multiply path (where the CPU has
/// one) and on slice-by-8, which stays the portable reference.
class Crc32PathsTest : public ::testing::Test {
 protected:
  void TearDown() override { crc32::ForceScalarForTest(false); }

  uint32_t Folded(Slice data, uint32_t seed = 0) {
    crc32::ForceScalarForTest(false);
    return Crc32(data, seed);
  }
  uint32_t Scalar(Slice data, uint32_t seed = 0) {
    crc32::ForceScalarForTest(true);
    const uint32_t crc = Crc32(data, seed);
    crc32::ForceScalarForTest(false);
    return crc;
  }
};

TEST_F(Crc32PathsTest, KnownVectorOnBothPaths) {
  EXPECT_EQ(Folded("123456789"), 0xCBF43926u);
  EXPECT_EQ(Scalar("123456789"), 0xCBF43926u);
  // Long enough that the folded path does the bulk of the work.
  const std::string digits = [] {
    std::string s;
    for (int i = 0; i < 32; ++i) s += "123456789";
    return s;
  }();
  EXPECT_EQ(Folded(digits), Crc32Bitwise(digits));
  EXPECT_EQ(Scalar(digits), Crc32Bitwise(digits));
}

TEST_F(Crc32PathsTest, EveryLengthAgrees) {
  const std::string data = RandomBytes(64 << 10, 7);
  for (size_t len = 0; len <= 1100; ++len) {
    const Slice s(data.data(), len);
    const uint32_t want = Crc32Bitwise(s);
    ASSERT_EQ(Folded(s), want) << "length " << len;
    ASSERT_EQ(Scalar(s), want) << "length " << len;
  }
  const uint32_t want = Crc32Bitwise(data);
  EXPECT_EQ(Folded(data), want);
  EXPECT_EQ(Scalar(data), want);
}

TEST_F(Crc32PathsTest, EveryStartOffsetAgrees) {
  // Unaligned loads: the same lengths starting at each offset in a
  // 16-byte block.
  const std::string data = RandomBytes(4096 + 64, 11);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len : {64u, 65u, 79u, 127u, 128u, 1000u, 4096u + 7}) {
      const Slice s(data.data() + offset, len);
      const uint32_t want = Crc32Bitwise(s);
      EXPECT_EQ(Folded(s), want) << "offset " << offset << " length " << len;
      EXPECT_EQ(Scalar(s), want) << "offset " << offset << " length " << len;
    }
  }
}

TEST_F(Crc32PathsTest, ChainedSeedsAgree) {
  // Crc32(b, Crc32(a)) == Crc32(a + b) on each path, whichever side of
  // the split is long enough to fold.
  const std::string data = RandomBytes(1100, 13);
  const uint32_t whole = Crc32Bitwise(data);
  for (size_t split : {0u, 1u, 15u, 16u, 63u, 64u, 65u, 500u, 1036u, 1099u,
                       1100u}) {
    const Slice a(data.data(), split);
    const Slice b(data.data() + split, data.size() - split);
    EXPECT_EQ(Folded(b, Folded(a)), whole) << "split " << split;
    EXPECT_EQ(Scalar(b, Scalar(a)), whole) << "split " << split;
  }
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Mix64(1), Mix64(2));
}

// --------------------------------------------------------------------- rle

TEST(RleTest, RoundTripSparseBitmapDelta) {
  std::string data(10000, '\0');
  data[17] = 0x40;
  data[9031] = 0x01;
  std::string enc;
  rle::Encode(data, &enc);
  EXPECT_LT(enc.size(), 64u);  // long zero runs collapse
  auto dec = rle::Decode(enc, data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, data);
}

TEST(RleTest, RoundTripRandomData) {
  Random rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::string data;
    const size_t n = rng.Uniform(2000);
    for (size_t i = 0; i < n; ++i) {
      if (rng.OneIn(3)) {
        data.push_back(static_cast<char>(rng.Uniform(256)));
      } else {
        data.append(rng.Uniform(30), rng.OneIn(2) ? '\0' : 'a');
      }
    }
    std::string enc;
    rle::Encode(data, &enc);
    auto dec = rle::Decode(enc, data.size());
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(*dec, data) << "trial " << trial;
  }
}

TEST(RleTest, DecodeXorIntoAppliesDelta) {
  std::string before(100, '\0');
  before[5] = 0x10;
  std::string after = before;
  after[5] = 0x30;
  after.resize(200, '\0');
  after[150] = 0x01;
  // delta = before XOR after
  std::string delta(200, '\0');
  for (size_t i = 0; i < 200; ++i) {
    delta[i] = (i < before.size() ? before[i] : 0) ^ after[i];
  }
  std::string enc;
  rle::Encode(delta, &enc);
  std::string state = before;
  ASSERT_OK(rle::DecodeXorInto(enc, delta.size(), &state));
  state.resize(200, '\0');  // zero-extension is implicit
  EXPECT_EQ(state, after);
}

TEST(RleTest, EmptyAndSingleInputs) {
  // Empty input.
  std::string enc;
  rle::Encode("", &enc);
  auto dec = rle::Decode(enc, 0);
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(dec->empty());
  // Single byte.
  enc.clear();
  rle::Encode("x", &enc);
  dec = rle::Decode(enc, 1);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, "x");
  // One long run of a single value.
  const std::string run(100000, '\7');
  enc.clear();
  rle::Encode(run, &enc);
  EXPECT_LT(enc.size(), 64u);
  dec = rle::Decode(enc, run.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, run);
}

TEST(RleTest, WorstCaseIncompressibleRoundTrips) {
  // No byte repeats: every position breaks the run, the encoder must
  // fall back to literals with bounded expansion and still round-trip.
  std::string data;
  for (int i = 0; i < 4096; ++i) {
    data.push_back(static_cast<char>(i * 37 + (i >> 3)));
  }
  std::string enc;
  rle::Encode(data, &enc);
  EXPECT_LE(enc.size(), 2 * data.size() + 16);  // bounded worst case
  auto dec = rle::Decode(enc, data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, data);
}

TEST(RleTest, DecodeRejectsCorruption) {
  std::string enc;
  rle::Encode(std::string(100, 'z'), &enc);
  EXPECT_TRUE(rle::Decode(enc, 100).ok());
  // One byte short of the encoded output.
  EXPECT_FALSE(rle::Decode(enc, 99).ok());
  std::string xored(10, '\0');
  EXPECT_FALSE(rle::DecodeXorInto(enc, 99, &xored).ok());
  enc.resize(enc.size() / 2);
  EXPECT_FALSE(rle::Decode(enc, 100).ok());
  std::string bad = "\x07";  // invalid tag
  EXPECT_FALSE(rle::Decode(bad, 100).ok());
  // A run length past any real output is rejected before it is sized.
  std::string huge = "\x01";
  PutVarint64(&huge, uint64_t{1} << 62);
  huge.push_back('z');
  EXPECT_FALSE(rle::Decode(huge, 1 << 20).ok());
}

// ---------------------------------------------------------------------- lz

TEST(LzTest, RoundTripText) {
  std::string data;
  for (int i = 0; i < 200; ++i) {
    data += "the quick brown fox jumps over the lazy dog ";
  }
  std::string enc;
  lz::Compress(data, &enc);
  EXPECT_LT(enc.size(), data.size() / 4);  // repetitive text compresses
  auto dec = lz::Decompress(enc, data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, data);
}

TEST(LzTest, RoundTripRandomBinary) {
  Random rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::string data;
    const size_t n = rng.Uniform(5000);
    for (size_t i = 0; i < n; ++i) {
      data.push_back(static_cast<char>(rng.Uniform(trial % 2 ? 256 : 4)));
    }
    std::string enc;
    lz::Compress(data, &enc);
    auto dec = lz::Decompress(enc, data.size());
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(*dec, data) << "trial " << trial;
  }
}

TEST(LzTest, EmptyAndTiny) {
  for (const std::string& data : {std::string(), std::string("a"),
                                  std::string("abc")}) {
    std::string enc;
    lz::Compress(data, &enc);
    auto dec = lz::Decompress(enc, data.size());
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(*dec, data);
  }
}

TEST(LzTest, OverlappingCopies) {
  // RLE-style self-referencing copies.
  std::string data(4096, 'q');
  std::string enc;
  lz::Compress(data, &enc);
  EXPECT_LT(enc.size(), 64u);
  auto dec = lz::Decompress(enc, data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, data);
}

TEST(LzTest, RejectsCorruptStreams) {
  EXPECT_FALSE(lz::Decompress("\x01\x05\x05", 64).ok());  // copy before start
  EXPECT_FALSE(lz::Decompress("\x09", 64).ok());          // bad tag
  // A copy or literal longer than the expected output is rejected before
  // any byte of it is produced.
  std::string enc;
  lz::Compress(std::string(4096, 'q'), &enc);
  EXPECT_TRUE(lz::Decompress(enc, 4096).ok());
  EXPECT_FALSE(lz::Decompress(enc, 4095).ok());
  std::string huge = "\x00\x01q\x01\x01";
  PutVarint64(&huge, uint64_t{1} << 62);
  EXPECT_FALSE(lz::Decompress(huge, 1 << 20).ok());
}

TEST(LzTest, WorstCaseIncompressibleRoundTrips) {
  // High-entropy input: no usable matches, only literal runs. The stream
  // may expand slightly but must stay bounded and decode exactly.
  Random rng(123);
  std::string data;
  for (int i = 0; i < 8192; ++i) {
    data.push_back(static_cast<char>(rng.Uniform(256)));
  }
  std::string enc;
  lz::Compress(data, &enc);
  EXPECT_LE(enc.size(), data.size() + data.size() / 8 + 64);
  auto dec = lz::Decompress(enc, data.size());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, data);
}

TEST(LzTest, RejectsTruncatedStreams) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += "repetition breeds copies ";
  std::string enc;
  lz::Compress(data, &enc);
  for (size_t keep = 1; keep < enc.size(); keep += 7) {
    const auto dec = lz::Decompress(enc.substr(0, keep), data.size());
    // A truncated stream either fails outright or yields a strict prefix
    // — it must never fabricate bytes past what was stored.
    if (dec.ok()) {
      EXPECT_LT(dec->size(), data.size()) << "keep=" << keep;
    }
  }
}

// ------------------------------------------------------------------ random

TEST(RandomTest, DeterministicPerSeed) {
  Random a(99), b(99), c(100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Random a2(99);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RandomTest, UniformInRange) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------------- io

TEST(IoTest, WriteReadRoundTrip) {
  ScratchDir dir("io");
  const std::string path = JoinPath(dir.path(), "f.bin");
  ASSERT_OK(WriteStringToFile(path, "hello world"));
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello world");
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
}

TEST(IoTest, AppendsFillAZeroExtendedRegionInPlaceAndTrimDropsTheRest) {
  ScratchDir dir("io");
  const std::string path = JoinPath(dir.path(), "log");
  ASSERT_OK_AND_ASSIGN(WritableFile f, WritableFile::Open(path, true));
  ASSERT_OK(f.Append("abc"));
  ASSERT_OK(f.ExtendZeroed(100));
  EXPECT_EQ(f.Size(), 3u);
  EXPECT_EQ(f.zeroed_end(), 103u);
  ASSERT_OK(f.Append("defg"));
  ASSERT_OK(f.Flush());
  // The append overwrote zeros; the file did not grow.
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(path));
  ASSERT_EQ(data.size(), 103u);
  EXPECT_EQ(data.substr(0, 7), "abcdefg");
  EXPECT_EQ(data.substr(7), std::string(96, '\0'));

  ASSERT_OK(f.Append("h"));
  ASSERT_OK(f.Trim());
  EXPECT_EQ(f.zeroed_end(), 8u);
  ASSERT_OK(f.Close());
  ASSERT_OK_AND_ASSIGN(data, ReadFileToString(path));
  EXPECT_EQ(data, "abcdefgh");
}

TEST(IoTest, AppendAcrossReopen) {
  ScratchDir dir("io");
  const std::string path = JoinPath(dir.path(), "log");
  {
    auto f = WritableFile::Open(path);
    ASSERT_TRUE(f.ok());
    ASSERT_OK(f->Append("abc"));
    ASSERT_OK(f->Close());
  }
  {
    auto f = WritableFile::Open(path);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->Size(), 3u);
    ASSERT_OK(f->Append("def"));
    ASSERT_OK(f->Close());
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "abcdef");
}

TEST(IoTest, RandomAccessShortReadIsError) {
  ScratchDir dir("io");
  const std::string path = JoinPath(dir.path(), "f");
  ASSERT_OK(WriteStringToFile(path, "0123456789"));
  auto f = RandomAccessFile::Open(path);
  ASSERT_TRUE(f.ok());
  std::string buf;
  ASSERT_OK(f->Read(5, 5, &buf));
  EXPECT_EQ(buf, "56789");
  EXPECT_TRUE(f->Read(8, 5, &buf).IsIOError());  // past EOF
}

TEST(IoTest, RandomWriteFilePatchesInPlace) {
  ScratchDir dir("io");
  const std::string path = JoinPath(dir.path(), "f");
  ASSERT_OK(WriteStringToFile(path, "xxxxxxxxxx"));
  auto f = RandomWriteFile::Open(path);
  ASSERT_TRUE(f.ok());
  ASSERT_OK(f->WriteAt(3, "ABC"));
  ASSERT_OK(f->Close());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "xxxABCxxxx");
}

TEST(IoTest, ListAndRemoveDir) {
  ScratchDir dir("io");
  ASSERT_OK(CreateDir(JoinPath(dir.path(), "a/b/c")));
  ASSERT_OK(WriteStringToFile(JoinPath(dir.path(), "a/f1"), "1"));
  ASSERT_OK(WriteStringToFile(JoinPath(dir.path(), "a/b/f2"), "22"));
  auto names = ListDir(JoinPath(dir.path(), "a"));
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
  EXPECT_EQ(DirSizeBytes(JoinPath(dir.path(), "a")), 3u);
  ASSERT_OK(RemoveDirRecursive(JoinPath(dir.path(), "a")));
  EXPECT_FALSE(FileExists(JoinPath(dir.path(), "a")));
}

}  // namespace
}  // namespace decibel
