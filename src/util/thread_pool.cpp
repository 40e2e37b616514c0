#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <memory>

namespace gs::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::run_batch(std::size_t n, std::size_t lanes,
                           const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (lanes <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  // Shared batch state outlives the call: helper tasks may still be queued
  // when the caller returns, but they claim nothing once the cursor is
  // exhausted, so they never touch `body` (caller-owned) after completion.
  struct BatchState {
    explicit BatchState(std::size_t count) : done(static_cast<std::ptrdiff_t>(count)) {}
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> next_lane{1};  ///< the caller owns lane 0
    std::latch done;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
  };
  auto state = std::make_shared<BatchState>(n);
  // One claim loop shared by the caller and every helper task.  It holds a
  // raw pointer to the caller-owned body, which is safe: the pointer is
  // only dereferenced after winning a claim (i < n), and the caller cannot
  // return — so body cannot die — before all n claims completed.
  const std::function<void(std::size_t, std::size_t)>* body_ptr = &body;
  const auto claim_loop = [n, state, body_ptr](std::size_t lane) {
    for (;;) {
      const std::size_t i = state->cursor.fetch_add(1);
      if (i >= n) return;
      try {
        (*body_ptr)(i, lane);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->error_mutex);
        if (!state->failed.exchange(true)) state->error = std::current_exception();
      }
      state->done.count_down();
    }
  };
  // A saturated pool (outer batches whose iterations call run_batch) would
  // never pop these helpers: the caller lane does all the work and the dead
  // closures pile up in tasks_.  Cap the outstanding helpers instead of
  // enqueueing blindly; the cap is approximate (racy load) and results
  // never depend on how many helpers actually run.  At most lanes - 1
  // helpers exist, so the lane ids they claim stay within [1, lanes).
  const std::size_t helper_cap = 2 * thread_count();
  const std::size_t backlog = queued_helpers_.load();
  std::size_t helpers = std::min(lanes, n) - 1;
  helpers = std::min(helpers, helper_cap > backlog ? helper_cap - backlog : 0);
  if (helpers > 0) {
    queued_helpers_.fetch_add(helpers);
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace([this, state, claim_loop] {
        queued_helpers_.fetch_sub(1);
        claim_loop(state->next_lane.fetch_add(1));
      });
    }
  }
  if (helpers > 0) cv_.notify_all();
  claim_loop(0);         // the caller is lane 0: no deadlock on a busy pool
  state->done.wait();    // indices claimed by helpers may still be running
  if (state->failed.load() && state->error) std::rethrow_exception(state->error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace gs::util
