#ifndef DECIBEL_ENGINE_PK_INDEX_H_
#define DECIBEL_ENGINE_PK_INDEX_H_

/// \file pk_index.h
/// The per-branch primary-key index of all three engines: pk -> one
/// 64-bit location (a global record index in tuple-first; a packed
/// (segment, record index) pair, PackedLoc, in hybrid and version-first).
///
/// A branch's index is a short chain of frozen layers shared with other
/// branches, newest last, under a private mutable delta. An at-head fork
/// freezes the parent's delta into a new layer (a move, not a copy); the
/// child gets the same chain and an empty delta, so a fork is O(1) in the
/// data. A lookup probes the delta, then the layers from newest to
/// oldest; the first level that holds the key decides. A key a branch
/// erases while an older layer still holds it gets an erase marker in
/// the delta, which hides the layers' copy. A branch folds everything
/// into one private table when its delta holds more keys than its
/// layers, so an insert-heavy branch ends with a single table; a delta
/// over half their size folds at its next growth instead, since the array
/// it would outgrow is garbage soon after. A fork that would make a chain
/// deeper than kMaxLayers collapses the chain into one shared layer. A
/// branch with no layers is exactly the flat table below: one probe per
/// insert, and nothing extra while loading.
///
/// Each level is a PkTable: a flat open-addressing table of 16-byte slots
/// in one power-of-two array, linear probing, deletion by backward shift
/// (no tombstones), at most 7/8 full. There is no per-entry allocation,
/// so an entry costs 18-37 bytes instead of a node-based map's ~60. Empty
/// slots hold the key INT64_MIN; that one key, a legal primary key like
/// any other, is stored out of line.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/status.h"

namespace decibel {

/// One flat level of a PkIndex (see the file comment).
class PkTable {
 public:
  size_t size() const { return used_ + (has_min_ ? 1 : 0); }
  /// Slots in the array (0 before the first insert).
  size_t capacity() const { return slots_.size(); }
  /// Heap bytes the table owns: the slot array.
  uint64_t MemoryBytes() const { return slots_.size() * sizeof(Slot); }

  /// The value stored for \p pk, or null. Stays valid until the next
  /// insert or erase.
  const uint64_t* Find(int64_t pk) const {
    if (pk == kEmpty) return has_min_ ? &min_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (size_t i = HomeSlot(pk);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.key == pk) return &s.value;
      if (s.key == kEmpty) return nullptr;
    }
  }
  bool Contains(int64_t pk) const { return Find(pk) != nullptr; }

  /// Inserts pk -> \p value unless \p pk is present. Returns the stored
  /// value's address and whether the insert happened.
  std::pair<uint64_t*, bool> TryEmplace(int64_t pk, uint64_t value) {
    if (pk == kEmpty) {
      const bool inserted = !has_min_;
      if (inserted) min_value_ = value;
      has_min_ = true;
      return {&min_value_, inserted};
    }
    size_t i = 0;
    if (!slots_.empty()) {
      for (i = HomeSlot(pk); slots_[i].key != kEmpty; i = (i + 1) & mask()) {
        if (slots_[i].key == pk) return {&slots_[i].value, false};
      }
    }
    if (!Fits(used_ + 1, slots_.size())) {
      Rehash(GrowTo(used_ + 1));
      i = FirstEmptyFrom(HomeSlot(pk));
    }
    slots_[i] = Slot{pk, value};
    ++used_;
    return {&slots_[i].value, true};
  }

  /// Inserts or overwrites.
  void Put(int64_t pk, uint64_t value) {
    auto [stored, inserted] = TryEmplace(pk, value);
    if (!inserted) *stored = value;
  }

  /// Removes \p pk; false when it was absent. Later entries of the probe
  /// chain shift back into the hole, so lookups never see tombstones.
  bool Erase(int64_t pk) {
    if (pk == kEmpty) {
      const bool had = has_min_;
      has_min_ = false;
      return had;
    }
    if (slots_.empty()) return false;
    size_t hole = HomeSlot(pk);
    for (; slots_[hole].key != pk; hole = (hole + 1) & mask()) {
      if (slots_[hole].key == kEmpty) return false;
    }
    for (size_t j = (hole + 1) & mask(); slots_[j].key != kEmpty;
         j = (j + 1) & mask()) {
      // The entry at j may fill the hole unless its home lies cyclically
      // in (hole, j]: moving it before its home would hide it.
      const size_t home = HomeSlot(slots_[j].key);
      const bool stays = hole < j ? (hole < home && home <= j)
                                  : (hole < home || home <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole].key = kEmpty;
    --used_;
    return true;
  }

  /// Sizes the array so \p n entries fit without a rehash.
  void Reserve(size_t n) {
    if (!Fits(n, slots_.size())) Rehash(GrowTo(n));
  }
  /// Whether inserting one more key may rehash the array.
  bool Full() const { return !Fits(used_ + 1, slots_.size()); }

  /// Removes every entry and frees the array.
  void Clear() {
    std::vector<Slot>().swap(slots_);
    used_ = 0;
    has_min_ = false;
  }

  /// The slot \p pk's probe chain starts at (exposed for tests that build
  /// colliding keys). Requires capacity() > 0.
  size_t HomeSlot(int64_t pk) const {
    return static_cast<size_t>(Mix64(static_cast<uint64_t>(pk))) & mask();
  }

  /// Calls \p fn(pk, value) for every entry, in no particular order.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    if (has_min_) fn(kEmpty, min_value_);
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    int64_t key = kEmpty;
    uint64_t value = 0;
  };
  static constexpr int64_t kEmpty = std::numeric_limits<int64_t>::min();

  size_t mask() const { return slots_.size() - 1; }

  /// Whether \p n entries fill \p cap slots at most 7/8: longer probe
  /// chains would cost more than the memory a larger array takes.
  static bool Fits(size_t n, size_t cap) { return n * 8 <= cap * 7; }

  /// The smallest power-of-two capacity (at least 16) \p n entries fit.
  static size_t GrowTo(size_t n) {
    size_t cap = 16;
    while (!Fits(n, cap)) cap *= 2;
    return cap;
  }

  size_t FirstEmptyFrom(size_t i) const {
    while (slots_[i].key != kEmpty) i = (i + 1) & mask();
    return i;
  }

  void Rehash(size_t cap) {
    const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cap));
    for (const Slot& s : old) {
      if (s.key != kEmpty) slots_[FirstEmptyFrom(HomeSlot(s.key))] = s;
    }
  }

  std::vector<Slot> slots_;  // empty, or a power-of-two count
  size_t used_ = 0;          // slots holding a key
  bool has_min_ = false;     // INT64_MIN, kept out of line
  uint64_t min_value_ = 0;
};

/// A branch's pk index: a private PkTable delta over a chain of shared,
/// frozen layers (see the file comment). Copying one copies the delta and
/// shares the layers; Fork is the O(1) at-head fork.
class PkIndex {
 public:
  /// The deepest chain a fork leaves; a deeper one collapses into a
  /// single layer. Each level costs a lookup that misses above it one
  /// more probe.
  static constexpr size_t kMaxLayers = 4;

  /// Live keys.
  size_t size() const { return size_; }
  /// Slots in the private delta's array.
  size_t capacity() const { return delta_.capacity(); }
  /// Frozen layers under the delta.
  size_t depth() const { return layers_.size(); }
  /// Heap bytes the index holds: the delta, its erase markers and every
  /// layer, shared or not.
  uint64_t MemoryBytes() const { return MemoryBytes(nullptr); }
  /// The same, but a layer already in *\p counted is not charged again
  /// (and is added to it): summed over branches, each shared layer
  /// counts once. Null counts every layer.
  uint64_t MemoryBytes(std::unordered_set<const void*>* counted) const;

  /// The value stored for \p pk, or null. Stays valid until the next
  /// insert, erase or fork.
  const uint64_t* Find(int64_t pk) const {
    const uint64_t* found = delta_.Find(pk);
    if (found != nullptr || layers_.empty()) return found;
    return FindBelowDelta(pk);
  }
  bool Contains(int64_t pk) const { return Find(pk) != nullptr; }

  /// Inserts pk -> \p value unless \p pk is present. Returns the stored
  /// value's address and whether the insert happened. A key only a layer
  /// holds is first copied into the delta, so the address is always the
  /// branch's own and writing through it changes this branch alone.
  std::pair<uint64_t*, bool> TryEmplace(int64_t pk, uint64_t value) {
    if (!layers_.empty()) return TryEmplaceLayered(pk, value);
    auto result = delta_.TryEmplace(pk, value);
    size_ += result.second ? 1 : 0;
    return result;
  }

  /// Inserts or overwrites.
  void Put(int64_t pk, uint64_t value) {
    auto [stored, inserted] = TryEmplace(pk, value);
    if (!inserted) *stored = value;
  }

  /// Removes \p pk; false when it was absent.
  bool Erase(int64_t pk) {
    if (!layers_.empty()) return EraseLayered(pk);
    const bool erased = delta_.Erase(pk);
    size_ -= erased ? 1 : 0;
    return erased;
  }

  /// Freezes the delta into a new layer and returns a child index that
  /// shares every layer of this one and starts with an empty delta. Both
  /// then see the same keys and evolve separately.
  PkIndex Fork();

  /// Sizes the delta so \p n entries fit without a rehash.
  void Reserve(size_t n) { delta_.Reserve(n); }

  /// Removes every entry: frees the delta and drops the layer references.
  void Clear() { *this = PkIndex(); }

  /// The delta slot \p pk's probe chain starts at (exposed for tests that
  /// build colliding keys). Requires capacity() > 0.
  size_t HomeSlot(int64_t pk) const { return delta_.HomeSlot(pk); }

 private:
  /// A frozen level: its live entries and its erase markers (a key in
  /// \p erased is absent here and in every older layer). Immutable, so
  /// branches on any stripe read it concurrently.
  struct Layer {
    PkTable live;
    PkTable erased;
  };

  /// The first layer holding \p pk decides: its value, or null for a
  /// marker or no layer.
  const uint64_t* FindInLayers(int64_t pk) const;
  /// Find past the delta: the delta's erase markers, then the layers.
  const uint64_t* FindBelowDelta(int64_t pk) const;
  std::pair<uint64_t*, bool> TryEmplaceLayered(int64_t pk, uint64_t value);
  bool EraseLayered(int64_t pk);
  /// Before a write: folds into one private table when the delta, with
  /// one more key, would outgrow the layers, or would grow its array
  /// while holding over half as many keys as they do.
  void MaybeFold();
  /// Every live entry of the chain and the delta in one table of size_.
  PkTable Flatten() const;

  PkTable delta_;
  /// Keys erased here that a layer still holds; empty with no layers.
  PkTable erased_;
  std::vector<std::shared_ptr<const Layer>> layers_;  // oldest first
  /// Entries (live and erased) over all layers.
  size_t layer_keys_ = 0;
  size_t size_ = 0;
};

/// A (segment, record index) location packed into one PkIndex value: the
/// segment in the top 24 bits, the record index in the low 40. Engines
/// call Check before packing a range of new locations, so an out-of-range
/// segment or record index fails the write instead of being truncated.
struct PackedLoc {
  static constexpr int kIdxBits = 40;
  static constexpr uint64_t kMaxSegments = uint64_t{1} << (64 - kIdxBits);
  static constexpr uint64_t kMaxRecords = uint64_t{1} << kIdxBits;

  /// OK when every record index below \p end in segment \p seg packs.
  static Status Check(uint32_t seg, uint64_t end) {
    if (seg >= kMaxSegments || end > kMaxRecords) {
      return Status::OutOfRange(
          "pk index: segment " + std::to_string(seg) + " with " +
          std::to_string(end) + " records exceeds the packed location " +
          "limits (" + std::to_string(kMaxSegments) + " segments, " +
          std::to_string(kMaxRecords) + " records per segment)");
    }
    return Status::OK();
  }
  /// Packs a location Check accepted.
  static uint64_t Pack(uint32_t seg, uint64_t idx) {
    DECIBEL_DCHECK(seg < kMaxSegments && idx < kMaxRecords);
    return (uint64_t{seg} << kIdxBits) | idx;
  }
  static uint32_t Seg(uint64_t packed) {
    return static_cast<uint32_t>(packed >> kIdxBits);
  }
  static uint64_t Idx(uint64_t packed) {
    return packed & (kMaxRecords - 1);
  }
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_PK_INDEX_H_
