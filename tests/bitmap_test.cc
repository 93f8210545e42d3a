/// Unit and property tests for the bitmap machinery: the growable Bitmap,
/// both BitmapIndex orientations, and the XOR-delta commit history.

#include <gtest/gtest.h>

#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/bitmap_index.h"
#include "bitmap/commit_history.h"
#include "common/coding.h"
#include "common/random.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::ScratchDir;

// ------------------------------------------------------------------ Bitmap

TEST(BitmapTest, SetTestReset) {
  Bitmap b;
  EXPECT_FALSE(b.Test(0));
  b.Set(5);
  b.Set(64);
  b.Set(1000);
  EXPECT_TRUE(b.Test(5));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(1000));
  EXPECT_FALSE(b.Test(6));
  EXPECT_EQ(b.Count(), 3u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitmapTest, TestPastEndIsFalse) {
  Bitmap b(10);
  EXPECT_FALSE(b.Test(100000));
  b.Reset(100000);  // no-op, no growth
  EXPECT_EQ(b.size(), 10u);
}

TEST(BitmapTest, AlgebraZeroExtends) {
  Bitmap a, b;
  a.Set(1);
  a.Set(100);
  b.Set(1);
  b.Set(500);

  Bitmap or_ab = Bitmap::Or(a, b);
  EXPECT_TRUE(or_ab.Test(1));
  EXPECT_TRUE(or_ab.Test(100));
  EXPECT_TRUE(or_ab.Test(500));

  Bitmap and_ab = Bitmap::And(a, b);
  EXPECT_TRUE(and_ab.Test(1));
  EXPECT_FALSE(and_ab.Test(100));
  EXPECT_FALSE(and_ab.Test(500));

  Bitmap xor_ab = Bitmap::Xor(a, b);
  EXPECT_FALSE(xor_ab.Test(1));
  EXPECT_TRUE(xor_ab.Test(100));
  EXPECT_TRUE(xor_ab.Test(500));

  Bitmap diff = Bitmap::AndNot(a, b);
  EXPECT_FALSE(diff.Test(1));
  EXPECT_TRUE(diff.Test(100));
  EXPECT_FALSE(diff.Test(500));
}

TEST(BitmapTest, EqualityUpToZeroExtension) {
  Bitmap a(10), b(1000);
  a.Set(3);
  b.Set(3);
  EXPECT_TRUE(a == b);
  b.Set(999);
  EXPECT_FALSE(a == b);
}

TEST(BitmapTest, NextSetAndIteration) {
  Bitmap b;
  const std::vector<uint64_t> bits = {0, 63, 64, 65, 128, 1000, 4095};
  for (uint64_t i : bits) b.Set(i);
  std::vector<uint64_t> seen;
  for (uint64_t i = b.NextSet(0); i != UINT64_MAX; i = b.NextSet(i + 1)) {
    seen.push_back(i);
  }
  EXPECT_EQ(seen, bits);
  std::vector<uint64_t> cb;
  b.ForEachSet([&](uint64_t i) { cb.push_back(i); });
  EXPECT_EQ(cb, bits);
  EXPECT_EQ(b.NextSet(4096), UINT64_MAX);
}

TEST(BitmapTest, CountPrefix) {
  Bitmap b;
  for (uint64_t i = 0; i < 300; i += 3) b.Set(i);
  EXPECT_EQ(b.CountPrefix(0), 0u);
  EXPECT_EQ(b.CountPrefix(1), 1u);
  EXPECT_EQ(b.CountPrefix(90), 30u);
  EXPECT_EQ(b.CountPrefix(10000), b.Count());
}

TEST(BitmapTest, BytesRoundTrip) {
  Bitmap b;
  Random rng(3);
  for (int i = 0; i < 200; ++i) b.Set(rng.Uniform(5000));
  const std::string bytes = b.ToBytes();
  Bitmap restored = Bitmap::FromBytes(bytes, b.size());
  EXPECT_TRUE(b == restored);

  std::string encoded;
  b.EncodeTo(&encoded);
  Slice in(encoded);
  Bitmap decoded;
  ASSERT_TRUE(Bitmap::DecodeFrom(&in, &decoded));
  EXPECT_TRUE(b == decoded);

  // A bit count that disagrees with the byte count is corrupt, however
  // large: it must not size an allocation.
  for (uint64_t nbits : {b.size() + 8, uint64_t{1} << 62}) {
    std::string forged;
    PutVarint64(&forged, nbits);
    PutLengthPrefixed(&forged, bytes);
    Slice forged_in(forged);
    EXPECT_FALSE(Bitmap::DecodeFrom(&forged_in, &decoded)) << nbits;
  }
}

// Regression: an empty bitmap backs its words with a null pointer, and the
// serialization paths used to hand that null to memcpy (UB even for zero
// bytes — caught by UBSan's nonnull-attribute check).
TEST(BitmapTest, EmptyBytesRoundTrip) {
  Bitmap b;
  const std::string bytes = b.ToBytes();
  EXPECT_TRUE(bytes.empty());
  Bitmap restored = Bitmap::FromBytes(bytes, 0);
  EXPECT_TRUE(restored.empty());
  EXPECT_TRUE(b == restored);
}

TEST(BitmapTest, EmptyEncodeDecodeRoundTrip) {
  Bitmap b;
  std::string encoded;
  b.EncodeTo(&encoded);
  EXPECT_FALSE(encoded.empty());  // still carries the bit-count varint
  Slice in(encoded);
  Bitmap decoded;
  ASSERT_TRUE(Bitmap::DecodeFrom(&in, &decoded));
  EXPECT_TRUE(decoded.empty());
  EXPECT_TRUE(b == decoded);
  EXPECT_EQ(in.size(), 0u);
}

// Regression: FromBytes with a default (null-data) Slice and a nonzero bit
// count must produce an all-zero bitmap without touching the null source.
TEST(BitmapTest, FromBytesNullSliceZeroFills) {
  Bitmap b = Bitmap::FromBytes(Slice(), 128);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_FALSE(b.Any());
}

// ------------------------------------------------------------ BitmapIndex

class BitmapIndexTest : public ::testing::TestWithParam<BitmapOrientation> {
 protected:
  std::unique_ptr<BitmapIndex> Make() {
    return BitmapIndex::Make(GetParam());
  }
};

TEST_P(BitmapIndexTest, SetAndTest) {
  auto idx = Make();
  idx->AddBranch(0);
  idx->AppendTuples(100);
  idx->Set(5, 0, true);
  idx->Set(50, 0, true);
  EXPECT_TRUE(idx->Test(5, 0));
  EXPECT_TRUE(idx->Test(50, 0));
  EXPECT_FALSE(idx->Test(6, 0));
  idx->Set(5, 0, false);
  EXPECT_FALSE(idx->Test(5, 0));
}

TEST_P(BitmapIndexTest, CloneBranchCopiesColumn) {
  auto idx = Make();
  idx->AddBranch(0);
  idx->AppendTuples(100);
  for (uint64_t t = 0; t < 100; t += 7) idx->Set(t, 0, true);
  idx->CloneBranch(0, 1);
  for (uint64_t t = 0; t < 100; ++t) {
    EXPECT_EQ(idx->Test(t, 1), idx->Test(t, 0)) << t;
  }
  // Divergence after the clone.
  idx->Set(3, 1, true);
  EXPECT_FALSE(idx->Test(3, 0));
  EXPECT_TRUE(idx->Test(3, 1));
}

TEST_P(BitmapIndexTest, ManyBranchesForceGrowth) {
  auto idx = Make();
  idx->AddBranch(0);
  idx->AppendTuples(10);
  idx->Set(1, 0, true);
  // Push past the 64-branch row width so tuple-oriented must expand.
  for (uint32_t b = 1; b < 200; ++b) {
    idx->AddBranch(b);
    idx->Set(b % 10, b, true);
  }
  EXPECT_TRUE(idx->Test(1, 0));
  for (uint32_t b = 1; b < 200; ++b) {
    EXPECT_TRUE(idx->Test(b % 10, b)) << b;
  }
}

TEST_P(BitmapIndexTest, MaterializeMatchesTest) {
  auto idx = Make();
  idx->AddBranch(3);
  idx->AppendTuples(500);
  Random rng(17);
  for (int i = 0; i < 200; ++i) idx->Set(rng.Uniform(500), 3, true);
  const Bitmap col = idx->MaterializeBranch(3);
  for (uint64_t t = 0; t < 500; ++t) {
    EXPECT_EQ(col.Test(t), idx->Test(t, 3)) << t;
  }
}

TEST_P(BitmapIndexTest, RestoreBranchOverwrites) {
  auto idx = Make();
  idx->AddBranch(0);
  idx->AppendTuples(100);
  idx->Set(10, 0, true);
  Bitmap snapshot;
  snapshot.Set(20);
  snapshot.Set(30);
  idx->RestoreBranch(0, snapshot);
  EXPECT_FALSE(idx->Test(10, 0));
  EXPECT_TRUE(idx->Test(20, 0));
  EXPECT_TRUE(idx->Test(30, 0));
}

TEST_P(BitmapIndexTest, SerializationRoundTrip) {
  auto idx = Make();
  idx->AddBranch(0);
  idx->AddBranch(7);
  idx->AppendTuples(300);
  Random rng(23);
  for (int i = 0; i < 100; ++i) {
    idx->Set(rng.Uniform(300), rng.OneIn(2) ? 0 : 7, true);
  }
  std::string blob;
  idx->EncodeTo(&blob);
  Slice in(blob);
  auto restored = BitmapIndex::DecodeFrom(&in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->orientation(), GetParam());
  EXPECT_EQ((*restored)->num_tuples(), 300u);
  for (uint64_t t = 0; t < 300; ++t) {
    EXPECT_EQ((*restored)->Test(t, 0), idx->Test(t, 0));
    EXPECT_EQ((*restored)->Test(t, 7), idx->Test(t, 7));
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothOrientations, BitmapIndexTest,
    ::testing::Values(BitmapOrientation::kBranchOriented,
                      BitmapOrientation::kTupleOriented),
    [](const auto& info) {
      return info.param == BitmapOrientation::kBranchOriented
                 ? "BranchOriented"
                 : "TupleOriented";
    });

// ---------------------------------------------------------- CommitHistory

TEST(CommitHistoryTest, CheckoutReconstructsEverySnapshot) {
  ScratchDir dir("ch");
  auto h = CommitHistory::Create(JoinPath(dir.path(), "h.hist"));
  ASSERT_TRUE(h.ok());
  Random rng(3);
  Bitmap state;
  std::vector<Bitmap> snapshots;
  std::vector<uint64_t> seqs;
  uint64_t seq = 0;
  for (int c = 0; c < 40; ++c) {
    for (int i = 0; i < 25; ++i) {
      const uint64_t bit = rng.Uniform(3000);
      if (rng.OneIn(4)) {
        state.Reset(bit);
      } else {
        state.Set(bit);
      }
    }
    seq += 1 + rng.Uniform(5);
    ASSERT_OK((*h)->AppendCommit(seq, state));
    snapshots.push_back(state);
    seqs.push_back(seq);
  }
  for (size_t i = 0; i < snapshots.size(); ++i) {
    auto got = (*h)->Checkout(seqs[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(*got == snapshots[i]) << "commit " << i;
  }
}

TEST(CommitHistoryTest, FloorSemantics) {
  ScratchDir dir("ch");
  auto h = CommitHistory::Create(JoinPath(dir.path(), "h.hist"));
  ASSERT_TRUE(h.ok());
  Bitmap b1, b2;
  b1.Set(1);
  b2.Set(1);
  b2.Set(2);
  ASSERT_OK((*h)->AppendCommit(10, b1));
  ASSERT_OK((*h)->AppendCommit(20, b2));

  EXPECT_FALSE((*h)->FloorCommit(9).has_value());
  EXPECT_EQ((*h)->FloorCommit(10), std::optional<uint64_t>(10));
  EXPECT_EQ((*h)->FloorCommit(15), std::optional<uint64_t>(10));
  EXPECT_EQ((*h)->FloorCommit(99), std::optional<uint64_t>(20));
  EXPECT_TRUE((*h)->Checkout(9).status().IsNotFound());
  auto at15 = (*h)->Checkout(15);  // floor -> seq 10
  ASSERT_TRUE(at15.ok());
  EXPECT_TRUE(*at15 == b1);
  auto at99 = (*h)->Checkout(99);  // floor -> seq 20
  ASSERT_TRUE(at99.ok());
  EXPECT_TRUE(*at99 == b2);
}

TEST(CommitHistoryTest, RejectsNonIncreasingSeq) {
  ScratchDir dir("ch");
  auto h = CommitHistory::Create(JoinPath(dir.path(), "h.hist"));
  ASSERT_TRUE(h.ok());
  Bitmap b;
  b.Set(1);
  ASSERT_OK((*h)->AppendCommit(5, b));
  EXPECT_TRUE((*h)->AppendCommit(5, b).IsInvalidArgument());
  EXPECT_TRUE((*h)->AppendCommit(3, b).IsInvalidArgument());
}

TEST(CommitHistoryTest, ReopenAndContinue) {
  // Two composites before the reopen and a third after it, so Open must
  // index the composites and the first append after it must rebuild the
  // composite base from them.
  constexpr uint32_t k = CommitHistory::kCompositeEvery;
  ScratchDir dir("ch");
  const std::string path = JoinPath(dir.path(), "h.hist");
  Random rng(7);
  Bitmap state;
  std::vector<Bitmap> snapshots;
  auto next_state = [&] {
    for (int i = 0; i < 20; ++i) {
      const uint64_t bit = rng.Uniform(2000);
      if (rng.OneIn(3)) {
        state.Reset(bit);
      } else {
        state.Set(bit);
      }
    }
    snapshots.push_back(state);
    return snapshots.size();  // the commit's seq
  };
  auto expect_all = [&](const CommitHistory& h, const char* when) {
    for (size_t i = 0; i < snapshots.size(); ++i) {
      auto got = h.Checkout(i + 1);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(*got == snapshots[i]) << when << ": seq " << i + 1;
    }
  };
  {
    auto h = CommitHistory::Create(path);
    ASSERT_TRUE(h.ok());
    while (snapshots.size() < 2 * k + 3) {
      const uint64_t seq = next_state();
      ASSERT_OK((*h)->AppendCommit(seq, state));
    }
  }
  auto h = CommitHistory::Open(path);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ((*h)->num_commits(), 2 * k + 3);
  expect_all(**h, "after reopen");
  // Continue appending after reopen (writer state rebuilt lazily).
  while (snapshots.size() < 3 * k + 2) {
    const uint64_t seq = next_state();
    ASSERT_OK((*h)->AppendCommit(seq, state));
  }
  expect_all(**h, "after appending past the third composite");
}

TEST(CommitHistoryTest, DetectsCorruptRecords) {
  ScratchDir dir("ch");
  const std::string path = JoinPath(dir.path(), "h.hist");
  {
    auto h = CommitHistory::Create(path);
    ASSERT_TRUE(h.ok());
    Bitmap b;
    for (uint64_t i = 0; i < 100; i += 2) b.Set(i);
    ASSERT_OK((*h)->AppendCommit(1, b));
  }
  // Flip a payload byte.
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string mutated = *contents;
  mutated[mutated.size() / 2] ^= 0xff;
  ASSERT_OK(WriteStringToFile(path, mutated));
  auto h = CommitHistory::Open(path);
  EXPECT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsCorruption());
}

TEST(CommitHistoryTest, CompressionIsEffectiveOnSparseDeltas) {
  // Consecutive commits differing by a handful of bits should cost far
  // less than full snapshots (the point of §3.2's delta+RLE encoding).
  ScratchDir dir("ch");
  auto h = CommitHistory::Create(JoinPath(dir.path(), "h.hist"));
  ASSERT_TRUE(h.ok());
  Bitmap state(1 << 20);  // 128 KiB of bitmap
  for (uint64_t i = 0; i < (1 << 20); i += 2) state.Set(i);
  ASSERT_OK((*h)->AppendCommit(1, state));
  const uint64_t first = (*h)->SizeBytes();
  for (int c = 2; c <= 20; ++c) {
    state.Set(1000 + static_cast<uint64_t>(c) * 2);
    ASSERT_OK((*h)->AppendCommit(c, state));
  }
  const uint64_t per_commit = ((*h)->SizeBytes() - first) / 19;
  EXPECT_LT(per_commit, 256u) << "sparse deltas should be tiny";
}

}  // namespace
}  // namespace decibel
