#ifndef DECIBEL_STORAGE_BUFFER_POOL_H_
#define DECIBEL_STORAGE_BUFFER_POOL_H_

/// \file buffer_pool.h
/// A read cache of immutable heap-file pages (the paper runs a "fairly
/// conventional buffer pool architecture (with 4 MB pages)", §2.1).
/// Decibel's storage is no-overwrite: sealed pages never change, so the
/// pool never needs dirty-page writeback — mutation happens only in a heap
/// file's in-memory tail page, which is served by the file itself.
///
/// Eviction is a segmented LRU, so one long scan cannot flush the pages
/// that queries keep coming back to. Plain LRU evicts every page of a loop
/// longer than the pool before the loop returns to it: a versioned query
/// that walks a branch's pages twice, or two queries in a row over the
/// same 26 pages of a 15-page pool, then get no hits at all. Here a loaded
/// page enters a *probation* list; a hit promotes it to a *protected* list
/// capped at 3/4 of the capacity bytes, whose overflow
/// demotes protected's least recent page to the head of probation.
/// Eviction takes probation's least recent page first. A one-shot scan
/// therefore only churns probation, and a loop over more pages than the
/// pool keeps the protected share resident across laps. The split is
/// fixed, like 2Q's recommended 25% admission queue.
///
/// Pages are handed out as PageRefs that share the pool's own buffer; a
/// reader holding a page keeps it alive even if the pool evicts it
/// concurrently. A page the pool loads lives in a frame it hands out
/// (NewFrame): when the last reference to an evicted page drops, its
/// buffer is parked as the pool's one spare frame, and the next load
/// reads into it instead of allocating and zero-filling a new one.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"

namespace decibel {

using PageRef = std::shared_ptr<const std::string>;

/// Callback interface the pool uses to load a page on miss.
class PageSource {
 public:
  virtual ~PageSource() = default;
  /// Reads page \p page_no into \p out (exactly page-size bytes),
  /// replacing whatever \p out holds: it may be a recycled frame.
  virtual Status ReadPageFromDisk(uint64_t page_no, std::string* out) = 0;
};

class BufferPool {
 public:
  /// \p capacity_bytes caps resident page bytes (at least one page is
  /// always admitted). Outside the cap sit the pages readers still hold
  /// after eviction and at most one spare frame: the buffer of the last
  /// evicted page whose final reference dropped, kept for the next load.
  explicit BufferPool(uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes),
        protected_cap_bytes_(capacity_bytes -
                             capacity_bytes / kProbationShare) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns page \p page_no of file \p file_id, loading it via \p source
  /// on miss.
  Result<PageRef> GetPage(uint64_t file_id, uint64_t page_no,
                          PageSource* source);

  /// Returns the cached page, or null on miss — never loads, but counts
  /// the miss: its caller loads the page itself. Lets a caller that can
  /// serve itself from compressed stored bytes check for an
  /// already-decoded copy first.
  PageRef Peek(uint64_t file_id, uint64_t page_no);

  /// A buffer to load a page into: the spare frame if one is parked,
  /// otherwise a new empty string. Its contents are stale; the loader
  /// overwrites them (a resize to the page's length only shrinks a
  /// recycled frame). When the last reference to the returned buffer
  /// drops, the buffer becomes the spare frame, replacing (and freeing)
  /// any spare already parked. Recycling happens in that deleter, after
  /// shared_ptr's final acq_rel decrement, so it is ordered after every
  /// holder's last read — a use_count() check at eviction would not be.
  std::shared_ptr<std::string> NewFrame();

  /// Caches an already-materialized page (e.g. one the caller decoded
  /// from compressed stored bytes). A page already cached under the key
  /// is kept — both copies are equally valid, immutable decodings.
  void Insert(uint64_t file_id, uint64_t page_no, PageRef page);

  /// Drops every cached page. Benchmarks call this between measured
  /// queries to approximate the paper's cold-cache methodology (§5).
  void EvictAll();

  /// Drops cached pages belonging to \p file_id (called when a file is
  /// destroyed so ids can be recycled safely).
  void EvictFile(uint64_t file_id);

  /// Lifetime lookup counters (GetPage and Peek) and the resident page
  /// bytes; safe to read from any thread without the lock.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Probation, where new pages are admitted, keeps 1/kProbationShare of
  /// the capacity bytes; the protected (hit-at-least-once) list may hold
  /// the rest.
  static constexpr uint64_t kProbationShare = 4;

  struct Key {
    uint64_t file_id;
    uint64_t page_no;
    bool operator==(const Key& o) const {
      return file_id == o.file_id && page_no == o.page_no;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.file_id * 0x9e3779b97f4a7c15ULL ^
                                 k.page_no);
    }
  };
  struct Entry {
    PageRef page;
    std::list<Key>::iterator pos;  // in protected_ or probation_
    bool is_protected = false;
  };

  /// The parked spare frame. Shared with every frame's deleter, so frames
  /// released after the pool is gone still have somewhere to go.
  struct SpareFrame {
    std::atomic<std::string*> frame{nullptr};
    ~SpareFrame() { delete frame.load(std::memory_order_acquire); }
  };

  /// Records a hit on \p e: promotes a probation page, refreshes a
  /// protected one.
  void TouchLocked(Entry& e);
  /// Evicts until \p page fits, then admits it at the head of probation.
  void AdmitLocked(Entry& e, const Key& k, PageRef page);
  /// Removes the entry \p it points at from its list and the map.
  void DropLocked(std::unordered_map<Key, Entry, KeyHash>::iterator it);

  const uint64_t capacity_bytes_;
  const uint64_t protected_cap_bytes_;
  const std::shared_ptr<SpareFrame> spare_ = std::make_shared<SpareFrame>();
  std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> pages_;
  std::list<Key> probation_;  // front = most recent
  std::list<Key> protected_;  // front = most recent
  uint64_t protected_bytes_ = 0;
  // Written under mu_, read lock-free by the accessors above.
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace decibel

#endif  // DECIBEL_STORAGE_BUFFER_POOL_H_
