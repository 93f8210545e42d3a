#include "storage/buffer_pool.h"

#include <iterator>

namespace decibel {

Result<PageRef> BufferPool::GetPage(uint64_t file_id, uint64_t page_no,
                                    PageSource* source) {
  const Key key{file_id, page_no};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pages_.find(key);
    if (it != pages_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      TouchLocked(it->second);
      return it->second.page;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  // Load outside the lock; concurrent loads of the same page are rare and
  // benign (first insert wins, both readers get valid pages).
  std::shared_ptr<std::string> page = NewFrame();
  DECIBEL_RETURN_NOT_OK(source->ReadPageFromDisk(page_no, page.get()));
  PageRef ref = std::move(page);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = pages_.try_emplace(key);
    if (inserted) AdmitLocked(it->second, key, ref);
  }
  return ref;
}

std::shared_ptr<std::string> BufferPool::NewFrame() {
  std::string* frame =
      spare_->frame.exchange(nullptr, std::memory_order_acq_rel);
  if (frame == nullptr) frame = new std::string;
  return std::shared_ptr<std::string>(
      frame, [spare = spare_](std::string* released) {
        delete spare->frame.exchange(released, std::memory_order_acq_rel);
      });
}

PageRef BufferPool::Peek(uint64_t file_id, uint64_t page_no) {
  const Key key{file_id, page_no};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(key);
  if (it == pages_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  TouchLocked(it->second);
  return it->second.page;
}

void BufferPool::Insert(uint64_t file_id, uint64_t page_no, PageRef page) {
  const Key key{file_id, page_no};
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = pages_.try_emplace(key);
  if (inserted) AdmitLocked(it->second, key, std::move(page));
}

void BufferPool::TouchLocked(Entry& e) {
  if (e.is_protected) {
    protected_.splice(protected_.begin(), protected_, e.pos);
    return;
  }
  protected_.splice(protected_.begin(), probation_, e.pos);
  e.is_protected = true;
  protected_bytes_ += e.page->size();
  // Demote protected's least recent pages back to probation's head; they
  // stay resident and can be promoted again by their next hit.
  while (protected_bytes_ > protected_cap_bytes_) {
    auto victim = std::prev(protected_.end());
    Entry& demoted = pages_.find(*victim)->second;
    probation_.splice(probation_.begin(), protected_, victim);
    demoted.is_protected = false;
    protected_bytes_ -= demoted.page->size();
  }
}

void BufferPool::AdmitLocked(Entry& e, const Key& k, PageRef page) {
  // Make room before admitting, so resident_bytes() never reads above
  // capacity (unless one page alone exceeds it). Probation's least recent
  // page goes first; protected gives one up only when probation is empty.
  const uint64_t size = page->size();
  while (resident_bytes_.load(std::memory_order_relaxed) + size >
             capacity_bytes_ &&
         !(probation_.empty() && protected_.empty())) {
    const Key victim =
        probation_.empty() ? protected_.back() : probation_.back();
    DropLocked(pages_.find(victim));
  }
  probation_.push_front(k);
  e.pos = probation_.begin();
  e.page = std::move(page);
  resident_bytes_.fetch_add(size, std::memory_order_relaxed);
}

void BufferPool::DropLocked(
    std::unordered_map<Key, Entry, KeyHash>::iterator it) {
  Entry& e = it->second;
  const uint64_t size = e.page->size();
  if (e.is_protected) {
    protected_.erase(e.pos);
    protected_bytes_ -= size;
  } else {
    probation_.erase(e.pos);
  }
  resident_bytes_.fetch_sub(size, std::memory_order_relaxed);
  pages_.erase(it);
}

void BufferPool::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  pages_.clear();
  probation_.clear();
  protected_.clear();
  protected_bytes_ = 0;
  resident_bytes_.store(0, std::memory_order_relaxed);
}

void BufferPool::EvictFile(uint64_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = pages_.begin(); it != pages_.end();) {
    auto next = std::next(it);
    if (it->first.file_id == file_id) DropLocked(it);
    it = next;
  }
}

}  // namespace decibel
