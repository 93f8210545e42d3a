/// Unit tests for the columnar statistics & compression subsystem: zone
/// map maintenance, merging, encoding and MayMatch pruning semantics;
/// the adaptive page codec (raw / columnar / lz) round-trips and
/// corruption rejection; predicate evaluation on compressed strips
/// against the decode-then-filter reference; and the SIMD filter kernels
/// against the scalar fallback.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "columnar/page_codec.h"
#include "columnar/simd_filter.h"
#include "columnar/zone_map.h"
#include "common/random.h"
#include "engine/scan_spec.h"
#include "query/predicate.h"
#include "storage/record.h"
#include "storage/schema.h"
#include "test_util.h"

namespace decibel {
namespace {

using columnar::CountMatchesCompressed;
using columnar::DecodePage;
using columnar::EncodePage;
using columnar::FilterStridedF64;
using columnar::FilterStridedI32;
using columnar::FilterStridedI64;
using columnar::PageFormat;
using columnar::ZoneMap;

/// pk + int32 c1 + int64 c2 + double c3 + string c4.
Schema MixedSchema() {
  auto schema = Schema::Make({{"key", FieldType::kInt64, 8},
                              {"c1", FieldType::kInt32, 4},
                              {"c2", FieldType::kInt64, 8},
                              {"c3", FieldType::kDouble, 8},
                              {"c4", FieldType::kString, 8}});
  EXPECT_TRUE(schema.ok());
  return *schema;
}

Record MixedRecord(const Schema& schema, int64_t pk, int32_t c1, int64_t c2,
                   double c3, const std::string& c4) {
  Record r(&schema);
  r.SetPk(pk);
  r.SetInt32(1, c1);
  r.SetInt64(2, c2);
  r.SetDouble(3, c3);
  r.SetString(4, c4);
  return r;
}

Record Tombstone(const Schema& schema, int64_t pk) {
  Record r(&schema);
  r.SetPk(pk);
  r.SetTombstone(true);
  return r;
}

// ---------------------------------------------------------------- ZoneMap

TEST(ZoneMapTest, EmptyZoneMatchesNothing) {
  const Schema schema = MixedSchema();
  ZoneMap zone(schema.num_columns());
  EXPECT_EQ(zone.rows(), 0u);
  EXPECT_FALSE(zone.has_live_rows());
  // Nothing can be emitted from an empty zone, whatever the predicate.
  EXPECT_FALSE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kEq, 0, 0));
  EXPECT_FALSE(zone.MayMatch(0, FieldType::kInt64, CompareOp::kGe, -100, 0));
}

TEST(ZoneMapTest, UpdateTracksRangesAndMayMatchPrunes) {
  const Schema schema = MixedSchema();
  ZoneMap zone(schema.num_columns());
  for (int64_t pk = 10; pk <= 20; ++pk) {
    Record r = MixedRecord(schema, pk, static_cast<int32_t>(pk * 2),
                           -pk, pk * 0.5, "s");
    zone.Update(schema, r.data().data());
  }
  EXPECT_EQ(zone.rows(), 11u);
  EXPECT_EQ(zone.tombstones(), 0u);
  EXPECT_EQ(zone.min_pk(), 10);
  EXPECT_EQ(zone.max_pk(), 20);

  // c1 in [20, 40].
  EXPECT_TRUE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kEq, 30, 0));
  EXPECT_FALSE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kEq, 41, 0));
  EXPECT_FALSE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kGt, 40, 0));
  EXPECT_TRUE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kGe, 40, 0));
  EXPECT_FALSE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kLt, 20, 0));
  EXPECT_TRUE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kLe, 20, 0));
  // kNe only prunes a constant zone; this one spans several values.
  EXPECT_TRUE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kNe, 30, 0));
  // c2 in [-20, -10]; c3 in [5.0, 10.0].
  EXPECT_FALSE(zone.MayMatch(2, FieldType::kInt64, CompareOp::kGt, 0, 0));
  EXPECT_TRUE(zone.MayMatch(3, FieldType::kDouble, CompareOp::kGe, 0, 7.25));
  EXPECT_FALSE(zone.MayMatch(3, FieldType::kDouble, CompareOp::kGt, 0, 10.5));
  // Strings are not summarized: always a conservative yes.
  EXPECT_TRUE(zone.MayMatch(4, FieldType::kString, CompareOp::kEq, 0, 0));
}

TEST(ZoneMapTest, NeOpPrunesConstantZones) {
  const Schema schema = MixedSchema();
  ZoneMap zone(schema.num_columns());
  for (int64_t pk = 0; pk < 4; ++pk) {
    Record r = MixedRecord(schema, pk, 7, 7, 7.0, "x");
    zone.Update(schema, r.data().data());
  }
  EXPECT_FALSE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kNe, 7, 0));
  EXPECT_TRUE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kNe, 8, 0));
}

TEST(ZoneMapTest, TombstonesWidenPkRangeButNotColumnStats) {
  const Schema schema = MixedSchema();
  ZoneMap zone(schema.num_columns());
  Record live = MixedRecord(schema, 5, 100, 100, 100.0, "v");
  zone.Update(schema, live.data().data());
  Record dead = Tombstone(schema, 900);
  zone.Update(schema, dead.data().data());

  EXPECT_EQ(zone.rows(), 2u);
  EXPECT_EQ(zone.tombstones(), 1u);
  EXPECT_TRUE(zone.has_live_rows());
  // The tombstone's key still shadows older versions...
  EXPECT_EQ(zone.max_pk(), 900);
  // ...but its zeroed payload must not widen the value ranges.
  EXPECT_FALSE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kEq, 0, 0));
  EXPECT_TRUE(zone.MayMatch(1, FieldType::kInt32, CompareOp::kEq, 100, 0));

  // An all-tombstone zone has nothing to emit.
  ZoneMap only_dead(schema.num_columns());
  only_dead.Update(schema, dead.data().data());
  EXPECT_FALSE(only_dead.has_live_rows());
  EXPECT_FALSE(
      only_dead.MayMatch(0, FieldType::kInt64, CompareOp::kEq, 900, 0));
}

TEST(ZoneMapTest, MergeAndBatchWiden) {
  const Schema schema = MixedSchema();
  ZoneMap a(schema.num_columns());
  ZoneMap b(schema.num_columns());
  std::string packed;
  for (int64_t pk = 0; pk < 3; ++pk) {
    Record r = MixedRecord(schema, pk, 1, 1, 1.0, "a");
    packed.append(r.data().data(), r.data().size());
  }
  a.UpdateBatch(schema, packed.data(), 3);
  Record far = MixedRecord(schema, 50, 9, 9, 9.0, "b");
  b.Update(schema, far.data().data());

  a.Merge(b);
  EXPECT_EQ(a.rows(), 4u);
  EXPECT_EQ(a.min_pk(), 0);
  EXPECT_EQ(a.max_pk(), 50);
  // The merged range is [1, 9]: a min/max zone answers "maybe" for any
  // value inside it, and prunes only outside.
  EXPECT_TRUE(a.MayMatch(1, FieldType::kInt32, CompareOp::kEq, 9, 0));
  EXPECT_TRUE(a.MayMatch(1, FieldType::kInt32, CompareOp::kEq, 5, 0));
  EXPECT_FALSE(a.MayMatch(1, FieldType::kInt32, CompareOp::kEq, 10, 0));
  EXPECT_FALSE(a.MayMatch(1, FieldType::kInt32, CompareOp::kLt, 1, 0));
}

TEST(ZoneMapTest, PkRangeOverlaps) {
  const Schema schema = MixedSchema();
  ZoneMap a(schema.num_columns());
  ZoneMap b(schema.num_columns());
  ZoneMap empty(schema.num_columns());
  Record r1 = MixedRecord(schema, 10, 0, 0, 0, "");
  Record r2 = MixedRecord(schema, 20, 0, 0, 0, "");
  a.Update(schema, r1.data().data());
  a.Update(schema, r2.data().data());
  Record r3 = MixedRecord(schema, 21, 0, 0, 0, "");
  b.Update(schema, r3.data().data());
  EXPECT_FALSE(a.PkRangeOverlaps(b));
  EXPECT_FALSE(a.PkRangeOverlaps(empty));
  Record r4 = MixedRecord(schema, 15, 0, 0, 0, "");
  b.Update(schema, r4.data().data());
  EXPECT_TRUE(a.PkRangeOverlaps(b));
}

TEST(ZoneMapTest, EncodeDecodeRoundTrip) {
  const Schema schema = MixedSchema();
  ZoneMap zone(schema.num_columns());
  for (int64_t pk = -3; pk <= 3; ++pk) {
    Record r = MixedRecord(schema, pk, static_cast<int32_t>(pk), pk * 1000,
                           pk * 0.25, "z");
    zone.Update(schema, r.data().data());
  }
  zone.Update(schema, Tombstone(schema, 77).data().data());

  std::string blob;
  zone.EncodeTo(&blob);
  Slice input(blob);
  auto decoded = ZoneMap::DecodeFrom(&input);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(decoded->rows(), zone.rows());
  EXPECT_EQ(decoded->tombstones(), zone.tombstones());
  EXPECT_EQ(decoded->min_pk(), zone.min_pk());
  EXPECT_EQ(decoded->max_pk(), zone.max_pk());
  ASSERT_EQ(decoded->num_columns(), zone.num_columns());
  for (size_t c = 0; c < zone.num_columns(); ++c) {
    EXPECT_EQ(decoded->column(c).has_values, zone.column(c).has_values);
    EXPECT_EQ(decoded->column(c).min_i64, zone.column(c).min_i64);
    EXPECT_EQ(decoded->column(c).max_i64, zone.column(c).max_i64);
  }

  // Truncated blobs are rejected, not misread.
  for (size_t cut = 0; cut < blob.size(); cut += 3) {
    std::string trunc = blob.substr(0, cut);
    Slice in(trunc);
    EXPECT_FALSE(ZoneMap::DecodeFrom(&in).ok()) << "cut=" << cut;
  }
}

TEST(ZoneMapTest, PreparedPredicateMayMatchAgreesWithRowMatches) {
  const Schema schema = MixedSchema();
  ZoneMap zone(schema.num_columns());
  std::vector<Record> rows;
  for (int64_t pk = 100; pk < 140; ++pk) {
    rows.push_back(MixedRecord(schema, pk, static_cast<int32_t>(pk % 7),
                               pk * 3, pk * 0.1, "s"));
    zone.Update(schema, rows.back().data().data());
  }
  const struct {
    const char* column;
    CompareOp op;
    int64_t value;
  } cases[] = {
      {"c1", CompareOp::kEq, 3},   {"c1", CompareOp::kGt, 6},
      {"c2", CompareOp::kLt, 300}, {"c2", CompareOp::kGe, 500},
      {"key", CompareOp::kEq, 99}, {"key", CompareOp::kLe, 100},
  };
  for (const auto& c : cases) {
    auto pred = Predicate::Compare(schema, c.column, c.op, c.value);
    ASSERT_TRUE(pred.ok());
    const PreparedPredicate prepared(*pred, schema);
    bool any = false;
    for (const Record& r : rows) any |= prepared.Matches(r.data().data());
    // MayMatch must never prune a zone holding a matching row.
    if (any) {
      EXPECT_TRUE(prepared.MayMatch(zone));
    }
  }
  // And it does prune what provably cannot match.
  auto none = Predicate::Compare(schema, "c1", CompareOp::kGt, 100);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(PreparedPredicate(*none, schema).MayMatch(zone));
}

// -------------------------------------------------------------- PageCodec

/// Packs \p rows into the row-major payload a sealed page stores.
std::string Pack(const std::vector<Record>& rows) {
  std::string payload;
  for (const Record& r : rows) {
    payload.append(r.data().data(), r.data().size());
  }
  return payload;
}

/// Decode must reproduce the payload byte-for-byte.
void ExpectRoundTrip(const Schema& schema, const std::string& payload,
                     uint32_t count) {
  std::string encoded;
  const PageFormat format = EncodePage(schema, payload.data(), count,
                                       &encoded);
  if (format == PageFormat::kRaw) {
    EXPECT_TRUE(encoded.empty());
    return;  // stored verbatim; nothing to decode
  }
  std::string decoded;
  ASSERT_OK(DecodePage(schema, format, Slice(encoded), count, &decoded));
  ASSERT_EQ(decoded.size(), payload.size());
  EXPECT_EQ(decoded, payload);
}

TEST(PageCodecTest, RepetitivePagesCompressAndRoundTrip) {
  const Schema schema = MixedSchema();
  std::vector<Record> rows;
  for (int64_t pk = 0; pk < 256; ++pk) {
    // Sequential keys, tiny dictionary c1, constant c2/c3, two strings.
    rows.push_back(MixedRecord(schema, pk, static_cast<int32_t>(pk % 3),
                               42, 1.5, pk % 2 ? "left" : "right"));
  }
  const std::string payload = Pack(rows);
  std::string encoded;
  const PageFormat format =
      EncodePage(schema, payload.data(), rows.size(), &encoded);
  EXPECT_NE(format, PageFormat::kRaw);
  EXPECT_LT(encoded.size(), payload.size());
  ExpectRoundTrip(schema, payload, rows.size());
}

TEST(PageCodecTest, IncompressiblePagesNeverExpand) {
  // High-entropy records: every value column is random. The codec may
  // still find the constant header-flags strip worth transposing, but
  // whatever it picks must be no larger than raw and round-trip exactly.
  const Schema schema = MixedSchema();
  Random rng(7);
  std::vector<Record> rows;
  for (int64_t pk = 0; pk < 128; ++pk) {
    std::string junk(8, '\0');
    for (char& ch : junk) ch = static_cast<char>(rng.Uniform(256));
    rows.push_back(MixedRecord(
        schema, static_cast<int64_t>(rng.Next()),
        static_cast<int32_t>(rng.Next()), static_cast<int64_t>(rng.Next()),
        rng.NextDouble() * 1e9, junk));
  }
  const std::string payload = Pack(rows);
  std::string encoded;
  const PageFormat format =
      EncodePage(schema, payload.data(), rows.size(), &encoded);
  if (format != PageFormat::kRaw) {
    EXPECT_LT(encoded.size(), payload.size());
  } else {
    EXPECT_TRUE(encoded.empty());
  }
  ExpectRoundTrip(schema, payload, rows.size());
}

TEST(PageCodecTest, SingleRecordAndTombstonePages) {
  const Schema schema = MixedSchema();
  ExpectRoundTrip(schema, Pack({MixedRecord(schema, 1, 2, 3, 4.0, "five")}),
                  1);
  std::vector<Record> rows;
  for (int64_t pk = 0; pk < 64; ++pk) rows.push_back(Tombstone(schema, pk));
  ExpectRoundTrip(schema, Pack(rows), rows.size());
}

TEST(PageCodecTest, MixedLiveAndTombstoneRoundTrip) {
  const Schema schema = MixedSchema();
  std::vector<Record> rows;
  for (int64_t pk = 0; pk < 200; ++pk) {
    if (pk % 5 == 0) {
      rows.push_back(Tombstone(schema, pk));
    } else {
      rows.push_back(MixedRecord(schema, pk, 9, 9, 9.0, "v"));
    }
  }
  ExpectRoundTrip(schema, Pack(rows), rows.size());
}

TEST(PageCodecTest, DecodeRejectsTruncation) {
  const Schema schema = MixedSchema();
  std::vector<Record> rows;
  for (int64_t pk = 0; pk < 256; ++pk) {
    rows.push_back(MixedRecord(schema, pk, static_cast<int32_t>(pk % 3), 42,
                               1.5, "s"));
  }
  const std::string payload = Pack(rows);
  std::string encoded;
  const PageFormat format =
      EncodePage(schema, payload.data(), rows.size(), &encoded);
  ASSERT_NE(format, PageFormat::kRaw);
  for (size_t keep : {size_t{0}, size_t{1}, encoded.size() / 2,
                      encoded.size() - 1}) {
    std::string trunc = encoded.substr(0, keep);
    std::string decoded;
    EXPECT_FALSE(
        DecodePage(schema, format, Slice(trunc), rows.size(), &decoded).ok())
        << "keep=" << keep;
  }
  // A corrupt page must never silently decode to different bytes.
  Random rng(3);
  for (int trial = 0; trial < 32; ++trial) {
    std::string bad = encoded;
    bad[rng.Uniform(bad.size())] ^= static_cast<char>(1 + rng.Uniform(255));
    std::string decoded;
    const Status s =
        DecodePage(schema, format, Slice(bad), rows.size(), &decoded);
    if (s.ok()) {
      EXPECT_EQ(decoded.size(), payload.size());
    }
  }
}

TEST(PageCodecTest, CountMatchesCompressedAgreesWithDecodeThenFilter) {
  const Schema schema = MixedSchema();
  std::vector<Record> rows;
  for (int64_t pk = 0; pk < 300; ++pk) {
    if (pk % 11 == 0) {
      rows.push_back(Tombstone(schema, pk));
    } else {
      rows.push_back(MixedRecord(schema, pk, static_cast<int32_t>(pk % 10),
                                 pk / 3, (pk % 4) * 0.5, "s"));
    }
  }
  const std::string payload = Pack(rows);
  std::string encoded;
  const PageFormat format =
      EncodePage(schema, payload.data(), rows.size(), &encoded);
  ASSERT_EQ(format, PageFormat::kColumnar);

  std::vector<Predicate> preds;
  for (auto [op, v] : std::vector<std::pair<CompareOp, int64_t>>{
           {CompareOp::kEq, 3},
           {CompareOp::kNe, 3},
           {CompareOp::kLt, 5},
           {CompareOp::kGe, 10},  // matches nothing: c1 in [0, 9]
       }) {
    preds.push_back(*Predicate::Compare(schema, "c1", op, v));
  }
  preds.push_back(*Predicate::Compare(schema, "key", CompareOp::kGt, 250));
  // Conjunction across two columns.
  preds.push_back(Predicate(*Predicate::Compare(schema, "c1", CompareOp::kLe,
                                                4))
                      .And(Predicate::Compare(schema, "c2", CompareOp::kGe,
                                              50)
                               ->comparisons()[0]));

  for (const Predicate& pred : preds) {
    const PreparedPredicate prepared(pred, schema);
    uint64_t expected = 0;
    for (const Record& r : rows) {
      if (!r.tombstone() && prepared.Matches(r.data().data())) ++expected;
    }
    bool exact = false;
    const uint64_t got =
        CountMatchesCompressed(schema, format, Slice(encoded), rows.size(),
                               pred.comparisons(), &exact);
    ASSERT_TRUE(exact);
    EXPECT_EQ(got, expected);
  }

  // Raw and lz formats cannot evaluate without decoding.
  bool exact = true;
  EXPECT_EQ(CountMatchesCompressed(schema, PageFormat::kRaw, Slice(payload),
                                   rows.size(), preds[0].comparisons(),
                                   &exact),
            0u);
  EXPECT_FALSE(exact);
}

// ------------------------------------------------------------ SIMD filter

template <typename T>
std::vector<T> RandomValues(Random* rng, size_t n) {
  std::vector<T> out(n);
  for (T& v : out) {
    // Small domain so comparisons land on both sides of the pivot.
    v = static_cast<T>(static_cast<int64_t>(rng->Uniform(64)) - 32);
  }
  return out;
}

TEST(SimdFilterTest, ScalarAndVectorPathsAgree) {
  constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                CompareOp::kLt, CompareOp::kLe,
                                CompareOp::kGt, CompareOp::kGe};
  Random rng(21);
  for (uint32_t n : {0u, 1u, 7u, 64u, 100u, 257u}) {
    const auto i32 = RandomValues<int32_t>(&rng, n);
    const auto i64 = RandomValues<int64_t>(&rng, n);
    auto f64 = RandomValues<double>(&rng, n);
    if (n > 4) f64[3] = std::numeric_limits<double>::quiet_NaN();
    for (CompareOp op : kOps) {
      std::vector<uint8_t> scalar(n, 1), simd(n, 1);
      columnar::ForceScalarForTest(true);
      FilterStridedI32(reinterpret_cast<const char*>(i32.data()), 4, n, op, 5,
                       scalar.data());
      FilterStridedI64(reinterpret_cast<const char*>(i64.data()), 8, n, op,
                       -3, scalar.data());
      FilterStridedF64(reinterpret_cast<const char*>(f64.data()), 8, n, op,
                       0.5, scalar.data());
      columnar::ForceScalarForTest(false);
      FilterStridedI32(reinterpret_cast<const char*>(i32.data()), 4, n, op, 5,
                       simd.data());
      FilterStridedI64(reinterpret_cast<const char*>(i64.data()), 8, n, op,
                       -3, simd.data());
      FilterStridedF64(reinterpret_cast<const char*>(f64.data()), 8, n, op,
                       0.5, simd.data());
      EXPECT_EQ(scalar, simd) << "op " << CompareOpName(op) << " n " << n;
    }
  }
  columnar::ForceScalarForTest(false);
}

TEST(SimdFilterTest, StridedAccessReadsTheRightColumn) {
  // Values embedded in fat records: stride != width exercises the gather.
  constexpr uint32_t kStride = 24;
  constexpr uint32_t kN = 33;
  std::string buf(kStride * kN, '\xee');
  for (uint32_t i = 0; i < kN; ++i) {
    const int32_t v = static_cast<int32_t>(i);
    memcpy(&buf[i * kStride + 8], &v, sizeof(v));
  }
  std::vector<uint8_t> mask(kN, 1);
  FilterStridedI32(buf.data() + 8, kStride, kN, CompareOp::kGe, 20,
                   mask.data());
  for (uint32_t i = 0; i < kN; ++i) {
    EXPECT_EQ(mask[i], i >= 20 ? 1 : 0) << i;
  }
}

TEST(SimdFilterTest, MatchBatchEqualsPerRowMatches) {
  const Schema schema = MixedSchema();
  Random rng(17);
  std::vector<Record> rows;
  for (int64_t pk = 0; pk < 500; ++pk) {
    rows.push_back(MixedRecord(
        schema, pk, static_cast<int32_t>(rng.Uniform(16)),
        static_cast<int64_t>(rng.Uniform(100)) - 50,
        rng.NextDouble() * 4 - 2, rng.OneIn(2) ? "yes" : "no"));
  }
  const std::string payload = Pack(rows);

  std::vector<Predicate> preds;
  preds.push_back(*Predicate::Compare(schema, "c1", CompareOp::kLt, 8));
  preds.push_back(*Predicate::Compare(schema, "c2", CompareOp::kGe, 0));
  preds.push_back(*Predicate::CompareDouble(schema, "c3", CompareOp::kGt,
                                            0.0));
  preds.push_back(*Predicate::CompareString(schema, "c4", CompareOp::kEq,
                                            "yes"));
  preds.push_back(Predicate(preds[0]).And(preds[1].comparisons()[0]));

  for (bool force_scalar : {false, true}) {
    columnar::ForceScalarForTest(force_scalar);
    for (const Predicate& pred : preds) {
      const PreparedPredicate prepared(pred, schema);
      std::vector<uint8_t> mask(rows.size(), 1);
      prepared.MatchBatch(payload.data(), rows.size(), schema.record_size(),
                          mask.data());
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(mask[i] != 0, prepared.Matches(rows[i].data().data()))
            << "row " << i;
      }
    }
  }
  columnar::ForceScalarForTest(false);
}

TEST(PreparedPredicateTest, MatchEachEqualsPerRowMatches) {
  // The multi-view kernel's batch form: every column type and operator,
  // a literal outside the int32 range, a conjunction, and batches of
  // every size up to 64 records in arbitrary order.
  const Schema schema = MixedSchema();
  Random rng(23);
  std::vector<Record> rows;
  for (int64_t pk = 0; pk < 300; ++pk) {
    rows.push_back(MixedRecord(
        schema, pk, static_cast<int32_t>(rng.Uniform(16)) - 8,
        static_cast<int64_t>(rng.Uniform(100)) - 50,
        rng.OneIn(9) ? std::nan("") : rng.NextDouble() * 4 - 2,
        rng.OneIn(2) ? "yes" : "no"));
  }
  std::vector<Predicate> preds;
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    preds.push_back(*Predicate::Compare(schema, "c1", op, 0));
    preds.push_back(*Predicate::Compare(schema, "c2", op, -3));
    preds.push_back(*Predicate::CompareDouble(schema, "c3", op, 0.5));
    preds.push_back(*Predicate::CompareString(schema, "c4", op, "yes"));
  }
  preds.push_back(*Predicate::Compare(schema, "c1", CompareOp::kLt,
                                      int64_t{1} << 40));
  preds.push_back(Predicate(preds[2]).And(preds[4].comparisons()[0]));
  preds.push_back(Predicate());
  for (const Predicate& pred : preds) {
    const PreparedPredicate prepared(pred, schema);
    for (uint32_t n = 1; n <= 64; ++n) {
      std::vector<const char*> batch(n);
      for (uint32_t i = 0; i < n; ++i) {
        batch[i] = rows[rng.Uniform(rows.size())].data().data();
      }
      const uint64_t got = prepared.MatchEach(batch.data(), n);
      if (n < 64) {
        EXPECT_EQ(got >> n, 0u);
      }
      for (uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(((got >> i) & 1) != 0, prepared.Matches(batch[i]))
            << "record " << i << " of " << n;
      }
    }
  }
}

}  // namespace
}  // namespace decibel
