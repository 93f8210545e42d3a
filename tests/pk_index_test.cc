/// Tests for the engines' pk index (engine/pk_index.h): differential
/// equivalence with std::unordered_map under random insert/update/erase/
/// find traffic, wrapped probe chains, growth, copy independence, memory
/// accounting against the allocator, the packed-location limits, and the
/// layered index under forks: erases of keys only a shared layer holds,
/// re-inserts over erase markers, folds, collapses and shared-layer
/// memory.

#include "engine/pk_index.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
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

/// Applies one random operation on \p pk to \p index and \p ref,
/// comparing the results.
void RandomOp(int64_t pk, Random* rng, PkIndex* index, Reference* ref) {
  const uint64_t value = rng->Next();
  switch (rng->Uniform(5)) {
    case 0: {
      auto [stored, inserted] = index->TryEmplace(pk, value);
      auto [it, ref_inserted] = ref->try_emplace(pk, value);
      ASSERT_EQ(inserted, ref_inserted) << "pk " << pk;
      ASSERT_EQ(*stored, it->second) << "pk " << pk;
      break;
    }
    case 1:
      index->Put(pk, value);
      (*ref)[pk] = value;
      break;
    case 2:
    case 3:
      ASSERT_EQ(index->Erase(pk), ref->erase(pk) == 1) << "pk " << pk;
      break;
    default: {
      const uint64_t* found = index->Find(pk);
      auto it = ref->find(pk);
      ASSERT_EQ(found != nullptr, it != ref->end()) << "pk " << pk;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "pk " << pk;
      }
      break;
    }
  }
}

TEST(PkIndexTest, LayeredMatchesUnorderedMapAcrossForks) {
  // A population of branches forks, writes and dies at random. Keys come
  // from a small pool, so erases hit keys only a shared layer holds and
  // inserts land on erase markers; INT64_MIN is inserted before forks so
  // every layer has a chance to hold it out of line. Bursts of fresh keys
  // make deltas outgrow their layers (folds) and write-then-fork runs
  // push chains past kMaxLayers (collapses).
  Random rng(33);
  std::vector<int64_t> keys = {kMin, kMax, 0, -1, kMin + 1};
  for (int i = 0; i < 300; ++i) keys.push_back(rng.Next());
  std::vector<PkIndex> branches(1);
  std::vector<Reference> refs(1);
  int64_t fresh = 1;
  size_t max_depth = 0, folds = 0;
  for (int step = 0; step < 4000; ++step) {
    const size_t b = rng.Uniform(branches.size());
    const uint64_t action = rng.Uniform(100);
    if (action < 8 && branches.size() < 24) {
      if (rng.OneIn(2)) RandomOp(kMin, &rng, &branches[b], &refs[b]);
      branches.push_back(branches[b].Fork());
      refs.push_back(refs[b]);
      max_depth = std::max(max_depth, branches.back().depth());
      ASSERT_LE(branches.back().depth(), PkIndex::kMaxLayers);
    } else if (action < 10 && branches.size() > 1) {
      branches.erase(branches.begin() + static_cast<std::ptrdiff_t>(b));
      refs.erase(refs.begin() + static_cast<std::ptrdiff_t>(b));
    } else if (action < 11 && branches[b].depth() > 0) {
      // Fresh keys until the delta outgrows the layers and folds.
      for (int i = 0; i < 3000 && branches[b].depth() > 0; ++i) {
        const int64_t pk = fresh++ * 1000003;
        ASSERT_TRUE(branches[b].TryEmplace(pk, 1).second);
        refs[b][pk] = 1;
      }
      if (branches[b].depth() == 0) ++folds;
    } else {
      for (int i = 0; i < 20; ++i) {
        RandomOp(keys[rng.Uniform(keys.size())], &rng, &branches[b],
                 &refs[b]);
      }
    }
    if (step % 100 == 99) {
      for (size_t i = 0; i < branches.size(); ++i) {
        ExpectSameContents(branches[i], refs[i]);
      }
    }
  }
  for (size_t i = 0; i < branches.size(); ++i) {
    ExpectSameContents(branches[i], refs[i]);
  }
  EXPECT_EQ(max_depth, PkIndex::kMaxLayers);
  EXPECT_GT(folds, 0u);
}

TEST(PkIndexTest, ForkSharesLayersAndMarksErasures) {
  PkIndex parent;
  constexpr int64_t kKeys = 1000;
  for (int64_t k = 0; k < kKeys; ++k) parent.Put(k, 10 + k);
  parent.Put(kMin, 7);
  const uint64_t frozen_bytes = parent.MemoryBytes();

  PkIndex child = parent.Fork();
  EXPECT_EQ(parent.depth(), 1u);
  EXPECT_EQ(child.depth(), 1u);
  EXPECT_EQ(child.size(), static_cast<size_t>(kKeys) + 1);
  EXPECT_EQ(parent.capacity(), 0u);  // the delta moved, nothing copied

  // An erase of a key only the layer holds leaves a marker in the child;
  // the parent still sees the key.
  EXPECT_TRUE(child.Erase(5));
  EXPECT_TRUE(child.Erase(kMin));
  EXPECT_FALSE(child.Erase(5));
  EXPECT_EQ(child.Find(5), nullptr);
  EXPECT_EQ(child.Find(kMin), nullptr);
  EXPECT_EQ(*parent.Find(5), 15u);
  EXPECT_EQ(*parent.Find(kMin), 7u);
  // A re-insert over the marker is an insert.
  auto [stored, inserted] = child.TryEmplace(5, 99);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*stored, 99u);
  EXPECT_TRUE(child.TryEmplace(kMin, 8).second);
  // A layer's key is copied up before the child writes it.
  auto [copied, fresh] = child.TryEmplace(6, 1234);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(*copied, 16u);
  *copied = 77;
  EXPECT_EQ(*child.Find(6), 77u);
  EXPECT_EQ(*parent.Find(6), 16u);
  // An erase of a key the child wrote over the layer also needs a marker.
  EXPECT_TRUE(child.Erase(6));
  EXPECT_EQ(child.Find(6), nullptr);
  EXPECT_EQ(child.size(), static_cast<size_t>(kKeys));

  // Two forks: the shared layer counts once, plus each delta.
  PkIndex sibling = parent.Fork();
  EXPECT_EQ(parent.depth(), 1u);  // an empty delta adds no layer
  for (int64_t k = kKeys; k < kKeys + 10; ++k) sibling.Put(k, 1);
  std::unordered_set<const void*> counted;
  const uint64_t total = parent.MemoryBytes(&counted) +
                         child.MemoryBytes(&counted) +
                         sibling.MemoryBytes(&counted);
  EXPECT_EQ(total, frozen_bytes + (child.MemoryBytes() - frozen_bytes) +
                       sibling.capacity() * 16);
  EXPECT_EQ(parent.MemoryBytes(), frozen_bytes);
  EXPECT_EQ(sibling.MemoryBytes(), frozen_bytes + sibling.capacity() * 16);

  // A delta that outgrows its layers folds into one private table.
  for (int64_t k = 0; k < kKeys + 2; ++k) sibling.Put(2 * kKeys + k, 2);
  EXPECT_EQ(sibling.depth(), 0u);
  EXPECT_EQ(sibling.size(), static_cast<size_t>(2 * kKeys + 13));
  EXPECT_EQ(*sibling.Find(kMin), 7u);
  EXPECT_EQ(*sibling.Find(5), 15u);

  // Write-then-fork runs collapse a chain deeper than kMaxLayers.
  PkIndex writer = parent.Fork();
  for (size_t i = 0; i < 2 * PkIndex::kMaxLayers; ++i) {
    writer.Put(-100 - static_cast<int64_t>(i), i);
    PkIndex fork = writer.Fork();
    EXPECT_LE(fork.depth(), PkIndex::kMaxLayers);
    EXPECT_EQ(fork.size(), static_cast<size_t>(kKeys) + 2 + i);
    EXPECT_EQ(*fork.Find(-100), 0u);
    EXPECT_EQ(*fork.Find(kKeys - 1), static_cast<uint64_t>(9 + kKeys));
  }

  // Clear drops the layer references along with the delta.
  child.Clear();
  EXPECT_EQ(child.MemoryBytes(), 0u);
  EXPECT_EQ(child.depth(), 0u);
  EXPECT_EQ(child.Find(1), nullptr);
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
