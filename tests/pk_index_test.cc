/// Tests for the engines' flat pk index (engine/pk_index.h): differential
/// equivalence with std::unordered_map under random insert/update/erase/
/// find traffic, wrapped probe chains, growth, copy independence, memory
/// accounting against the allocator, and the packed-location limits.

#include "engine/pk_index.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace decibel {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

using Reference = std::unordered_map<int64_t, uint64_t>;

/// Every reference entry is found with its value, and nothing else is.
void ExpectSameContents(const PkIndex& index, const Reference& ref) {
  ASSERT_EQ(index.size(), ref.size());
  for (const auto& [pk, value] : ref) {
    const uint64_t* found = index.Find(pk);
    ASSERT_NE(found, nullptr) << "lost pk " << pk;
    ASSERT_EQ(*found, value) << "pk " << pk;
  }
}

/// Applies \p ops random operations drawn from \p keys to both \p index
/// and \p ref, comparing every result, with a full comparison every
/// 1000 operations.
void RunDifferential(const std::vector<int64_t>& keys, int ops, Random* rng,
                     PkIndex* index, Reference* ref) {
  for (int op = 0; op < ops; ++op) {
    const int64_t pk = keys[rng->Uniform(keys.size())];
    const uint64_t value = rng->Next();
    switch (rng->Uniform(4)) {
      case 0: {  // insert
        auto [stored, inserted] = index->TryEmplace(pk, value);
        auto [it, ref_inserted] = ref->try_emplace(pk, value);
        ASSERT_EQ(inserted, ref_inserted) << "pk " << pk;
        ASSERT_EQ(*stored, it->second) << "pk " << pk;
        break;
      }
      case 1:  // update (upsert)
        index->Put(pk, value);
        (*ref)[pk] = value;
        break;
      case 2:  // erase
        ASSERT_EQ(index->Erase(pk), ref->erase(pk) == 1) << "pk " << pk;
        break;
      default: {  // find
        const uint64_t* found = index->Find(pk);
        auto it = ref->find(pk);
        ASSERT_EQ(found != nullptr, it != ref->end()) << "pk " << pk;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "pk " << pk;
        }
        break;
      }
    }
    if (op % 1000 == 999) ExpectSameContents(*index, *ref);
  }
  ExpectSameContents(*index, *ref);
}

TEST(PkIndexTest, MatchesUnorderedMapUnderRandomTraffic) {
  Random rng(20);
  PkIndex index;
  Reference ref;
  // Phase 1, fixed capacity: the key pool is dense in chains. Keys whose
  // probe chains start in the last 8 slots wrap around the array end;
  // keys homed in the first 8 slots collide with the wrapped ones; the
  // extremes, 0 and -1 ride along. Erases land inside these chains.
  index.Reserve(1500);
  const size_t capacity = index.capacity();
  ASSERT_GE(capacity, 2048u);
  std::vector<int64_t> keys = {kMin, kMax, 0, -1, kMin + 1, kMax - 1};
  int wrapping = 0, leading = 0;
  for (int64_t k = 1; wrapping < 64 || leading < 64; ++k) {
    for (int64_t pk : {k, -k - 1, k * 7919}) {
      const size_t home = index.HomeSlot(pk);
      if (home >= capacity - 8 && wrapping < 64) {
        keys.push_back(pk);
        ++wrapping;
      } else if (home < 8 && leading < 64) {
        keys.push_back(pk);
        ++leading;
      }
    }
  }
  for (int i = 0; i < 400; ++i) keys.push_back(rng.Next());
  RunDifferential(keys, 100000, &rng, &index, &ref);
  EXPECT_EQ(index.capacity(), capacity);  // the chains never rehashed away

  // Phase 2, growth: mostly fresh keys, so the array doubles repeatedly
  // under the same mix of operations.
  index.Clear();
  ref.clear();
  EXPECT_EQ(index.capacity(), 0u);
  keys.clear();
  for (int i = 0; i < 40000; ++i) {
    keys.push_back(static_cast<int64_t>(rng.Uniform(1u << 20)) - (1 << 19));
  }
  keys.insert(keys.end(), {kMin, kMax, 0, -1});
  RunDifferential(keys, 100000, &rng, &index, &ref);
  EXPECT_GT(index.capacity(), 2048u);
}

TEST(PkIndexTest, GrowsAndCopiesAreIndependent) {
  PkIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(0), nullptr);
  EXPECT_FALSE(index.Erase(0));
  constexpr int64_t kKeys = 100000;
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(index.TryEmplace(k * 3, static_cast<uint64_t>(k)).second);
  }
  ASSERT_TRUE(index.TryEmplace(kMin, 42).second);
  EXPECT_EQ(index.size(), static_cast<size_t>(kKeys) + 1);
  // A power of two at most 7/8 full (INT64_MIN takes no slot).
  EXPECT_EQ(index.capacity() & (index.capacity() - 1), 0u);
  EXPECT_LE((index.size() - 1) * 8, index.capacity() * 7);

  // A fork copies the index; the two then evolve separately.
  PkIndex copy = index;
  EXPECT_EQ(copy.capacity(), index.capacity());
  for (int64_t k = 0; k < kKeys; k += 2) ASSERT_TRUE(copy.Erase(k * 3));
  copy.Put(3, 7777);
  copy.Put(kMin, 43);
  for (int64_t k = kKeys; k < 2 * kKeys; ++k) copy.Put(k * 3, 1);
  index.Put(kMax, 5);

  EXPECT_EQ(index.size(), static_cast<size_t>(kKeys) + 2);
  for (int64_t k = 0; k < kKeys; ++k) {
    const uint64_t* found = index.Find(k * 3);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(*found, static_cast<uint64_t>(k));
  }
  EXPECT_EQ(*index.Find(kMin), 42u);
  EXPECT_EQ(index.Find(kKeys * 3), nullptr);
  EXPECT_EQ(copy.Find(0), nullptr);
  EXPECT_EQ(*copy.Find(3), 7777u);
  EXPECT_EQ(*copy.Find(kMin), 43u);
  EXPECT_EQ(copy.Find(kMax), nullptr);
  EXPECT_EQ(copy.size(), static_cast<size_t>(kKeys) / 2 + 1 + kKeys);
}

TEST(PkIndexTest, MemoryBytesCountsTheSlotArray) {
  PkIndex index;
  EXPECT_EQ(index.MemoryBytes(), 0u);
  constexpr int64_t kKeys = 100000;
  for (int64_t k = 0; k < kKeys; ++k) index.Put(k * 7, 1);
  // 16-byte slots, between 7/16 and 7/8 full: 18-37 bytes per entry, no
  // per-entry allocation.
  EXPECT_EQ(index.MemoryBytes(), index.capacity() * 16);
  const double per_entry = static_cast<double>(index.MemoryBytes()) / kKeys;
  EXPECT_GE(per_entry, 16.0 * 8 / 7);
  EXPECT_LE(per_entry, 16.0 * 16 / 7);
  index.Clear();
  EXPECT_EQ(index.MemoryBytes(), 0u);
}

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33)) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
TEST(PkIndexTest, MemoryBytesMatchesTheAllocator) {
  // EngineStats::index_memory_bytes charges pk indexes through
  // MemoryBytes. Against glibc malloc (mallinfo2 needs glibc 2.33+;
  // sanitizer allocators bypass it) it must agree with what the index
  // really holds, forks included.
  auto heap_bytes = [] {
    const struct mallinfo2 mi = ::mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  const double before = heap_bytes();
  auto index = std::make_unique<PkIndex>();
  for (int64_t k = 0; k < 100000; ++k) index->Put(k * 7, 1);
  auto fork = std::make_unique<PkIndex>(*index);
  const double allocated = heap_bytes() - before;
  const double charged =
      static_cast<double>(index->MemoryBytes() + fork->MemoryBytes());
  EXPECT_NEAR(charged, allocated, allocated * 0.1);
}
#endif

TEST(PackedLocTest, RoundTripsAndRejectsOutOfRangeLocations) {
  constexpr uint32_t kLastSeg = PackedLoc::kMaxSegments - 1;
  constexpr uint64_t kLastIdx = PackedLoc::kMaxRecords - 1;
  for (uint32_t seg : {0u, 1u, 12345u, kLastSeg}) {
    for (uint64_t idx : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 32,
                         kLastIdx}) {
      const uint64_t packed = PackedLoc::Pack(seg, idx);
      EXPECT_EQ(PackedLoc::Seg(packed), seg);
      EXPECT_EQ(PackedLoc::Idx(packed), idx);
    }
  }
  EXPECT_TRUE(PackedLoc::Check(kLastSeg, PackedLoc::kMaxRecords).ok());
  EXPECT_TRUE(PackedLoc::Check(0, 0).ok());
  // One past either limit is an error, never a truncated location.
  EXPECT_TRUE(PackedLoc::Check(kLastSeg + 1, 1).IsOutOfRange());
  EXPECT_TRUE(
      PackedLoc::Check(0, PackedLoc::kMaxRecords + 1).IsOutOfRange());
  EXPECT_TRUE(PackedLoc::Check(UINT32_MAX, 1).IsOutOfRange());
}

}  // namespace
}  // namespace decibel
