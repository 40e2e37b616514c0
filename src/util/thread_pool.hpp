// Fixed-size thread pool behind one bounded fork/join primitive, run_batch.
// It runs many independent simulations at once (trials, sweep points) and,
// inside one simulation, the sharded engine's plan, commit and book passes.
//
// run_batch self-schedules over an atomic cursor and the *caller
// participates*, which keeps it deadlock-free even when every pool worker
// is itself busy inside a simulation that called run_batch.  Iterations
// range from per-peer tick plans (microseconds) to whole simulation runs
// (seconds); a mutex-guarded queue hands out only the helper closures, one
// per lane, so queue contention stays irrelevant at either grain.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gs::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Fork/join batch: runs body(i, lane) for i in [0, n) on at most
  /// `lanes` executors and blocks until every index completed.  `lane` is a
  /// dense id in [0, lanes), stable for the executing thread across the
  /// whole batch and never shared by two threads within it (the caller is
  /// lane 0; each helper claims the next free id on entry), so callers can
  /// index per-lane scratch — e.g. one bump arena per lane — without
  /// thread-local state.  The caller claims indices itself while waiting,
  /// so the batch finishes even if no pool worker ever becomes free (the
  /// pool may be saturated by outer batches whose iterations call run_batch
  /// again).  `lanes <= 1` degenerates to an inline loop on lane 0.  Index
  /// assignment to lanes is racy by design; callers must make iterations
  /// independent (the sharded engine writes disjoint per-index slots).
  /// Exceptions from any iteration are rethrown in the caller (first wins).
  void run_batch(std::size_t n, std::size_t lanes,
                 const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  /// Helper closures enqueued by run_batch that have not started yet.
  /// Bounds queue growth when the pool is saturated: a busy pool would
  /// otherwise accumulate one dead helper per batch, forever.
  std::atomic<std::size_t> queued_helpers_{0};
  bool stopping_ = false;
};

/// Process-wide pool shared by benches; constructed on first use.
ThreadPool& global_pool();

}  // namespace gs::util
