#ifndef DECIBEL_COMMON_THREAD_POOL_H_
#define DECIBEL_COMMON_THREAD_POOL_H_

/// \file thread_pool.h
/// A small fixed-size worker pool; net::Server runs complete requests on
/// one.

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace decibel {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues \p task for execution on some worker.
  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push(std::move(task));
      ++outstanding_;
    }
    cv_.notify_one();
  }

  /// Blocks until every submitted task has completed.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
        if (shutdown_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--outstanding_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  size_t outstanding_ = 0;
  bool shutdown_ = false;
};

}  // namespace decibel

#endif  // DECIBEL_COMMON_THREAD_POOL_H_
