// Work-stealing thread pool: the concurrency substrate for the parallel
// experiment runtime.
//
// The paper's evaluation is an embarrassingly parallel sweep — every figure
// is a grid of independent (estate, strategy, seed) runs — so the runtime
// only needs fork/join parallelism, but it needs it *deterministically*:
// results must be bit-identical regardless of thread count. The pool makes
// no ordering promises; determinism is the caller's contract, kept by
// writing each task's result into its own pre-allocated slot and deriving
// each task's RNG stream from util/rng.h keyed forks (never from a shared
// generator).
//
// Scheduling: each worker owns a deque (LIFO for its own submissions, FIFO
// for thieves); external submissions land in a shared injection queue.
// Waiting — TaskGroup::wait or a nested parallel_for on a worker thread —
// *helps*: the waiter executes pending tasks instead of blocking, so nested
// parallelism (a sweep cell that itself runs a parallel study) cannot
// deadlock.
//
// Thread count: ThreadPool::global() is sized from the VMCW_THREADS
// environment variable, falling back to std::thread::hardware_concurrency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace vmcw {

class ThreadPool {
 public:
  /// threads == 0 means default_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains every submitted task (including tasks spawned by running
  /// tasks), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// VMCW_THREADS if set to a positive integer, else hardware concurrency
  /// (at least 1).
  static std::size_t default_concurrency();

  /// Process-wide pool, lazily built with default_concurrency() threads.
  static ThreadPool& global();

  /// Enqueue a task. Tasks must not throw (wrap with TaskGroup for
  /// exception propagation). Worker threads push to their own deque;
  /// external threads to the shared injection queue.
  void submit(std::function<void()> task) VMCW_EXCLUDES(mutex_);

  /// Pop and execute one pending task if any is available anywhere.
  /// Used by waiters to help instead of blocking.
  bool try_run_one() VMCW_EXCLUDES(mutex_);

 private:
  struct Worker {
    Mutex mutex;
    std::deque<std::function<void()>> tasks VMCW_GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t index);
  bool pop_task(std::size_t preferred, std::function<void()>& out)
      VMCW_EXCLUDES(mutex_);
  void run_task(std::function<void()>& task) VMCW_EXCLUDES(mutex_);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  Mutex mutex_;
  CondVar wake_;
  /// External injection queue.
  std::deque<std::function<void()>> queue_ VMCW_GUARDED_BY(mutex_);
  /// Bumped on every submit/completion.
  std::uint64_t epoch_ VMCW_GUARDED_BY(mutex_) = 0;
  std::size_t executing_ VMCW_GUARDED_BY(mutex_) = 0;
  bool stop_ VMCW_GUARDED_BY(mutex_) = false;
};

/// Swap ThreadPool::global() for the lifetime of this object — lets tests
/// run the global-pool code paths at a specific thread count. Not
/// re-entrant; construct from one thread at a time.
class ScopedPoolOverride {
 public:
  explicit ScopedPoolOverride(ThreadPool& pool);
  ~ScopedPoolOverride();

  ScopedPoolOverride(const ScopedPoolOverride&) = delete;
  ScopedPoolOverride& operator=(const ScopedPoolOverride&) = delete;

 private:
  ThreadPool* previous_;
};

/// Fork/join task group. run() submits, wait() helps until every task in
/// the group finished and rethrows the first exception any task threw.
class TaskGroup {
 public:
  /// pool == nullptr uses ThreadPool::global().
  explicit TaskGroup(ThreadPool* pool = nullptr);

  /// Waits for stragglers; exceptions still pending are swallowed (call
  /// wait() to observe them).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> task) VMCW_EXCLUDES(mutex_);

  /// Block (helping the pool) until every task ran; rethrow the first
  /// exception thrown by any task.
  void wait() VMCW_EXCLUDES(mutex_);

 private:
  ThreadPool& pool_;
  Mutex mutex_;
  CondVar done_;
  /// Submitted, not yet finished.
  std::size_t pending_ VMCW_GUARDED_BY(mutex_) = 0;
  /// Submitted, not yet started.
  std::size_t queued_ VMCW_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ VMCW_GUARDED_BY(mutex_);
};

/// Run body(i) for every i in [begin, end) across the pool. Chunks of
/// `grain` indices per task (grain == 0 picks ~4 chunks per thread).
/// Deterministic as long as body(i) writes only state owned by index i.
/// Rethrows the first exception any body threw.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr, std::size_t grain = 0);

}  // namespace vmcw
