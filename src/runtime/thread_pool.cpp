#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

namespace vmcw {

namespace {

// Identity of the current thread inside its owning pool, for deque routing
// and for help-while-waiting.
thread_local ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_index = 0;

std::atomic<ThreadPool*> g_global_override{nullptr};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_concurrency();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

std::size_t ThreadPool::default_concurrency() {
  if (const char* env = std::getenv("VMCW_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& ThreadPool::global() {
  if (ThreadPool* override = g_global_override.load(std::memory_order_acquire))
    return *override;
  static ThreadPool pool;
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  if (tl_pool == this) {
    Worker& own = *workers_[tl_index];
    MutexLock lk(own.mutex);
    own.tasks.push_back(std::move(task));
  } else {
    MutexLock lk(mutex_);
    queue_.push_back(std::move(task));
  }
  {
    MutexLock lk(mutex_);
    ++epoch_;
  }
  wake_.notify_one();
}

bool ThreadPool::try_run_one() {
  const std::size_t preferred =
      tl_pool == this ? tl_index : workers_.size();
  std::function<void()> task;
  if (!pop_task(preferred, task)) return false;
  run_task(task);
  return true;
}

bool ThreadPool::pop_task(std::size_t preferred, std::function<void()>& out) {
  const std::size_t n = workers_.size();
  // Own deque first, newest-first: keeps nested fork/join cache-warm.
  if (preferred < n) {
    Worker& own = *workers_[preferred];
    MutexLock lk(own.mutex);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  {
    MutexLock lk(mutex_);
    if (!queue_.empty()) {
      out = std::move(queue_.front());
      queue_.pop_front();
      return true;
    }
  }
  // Steal oldest-first from the other workers.
  for (std::size_t off = 0; off < n; ++off) {
    const std::size_t victim = (preferred + 1 + off) % n;
    if (victim == preferred) continue;
    Worker& other = *workers_[victim];
    MutexLock lk(other.mutex);
    if (!other.tasks.empty()) {
      out = std::move(other.tasks.front());
      other.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(std::function<void()>& task) {
  {
    MutexLock lk(mutex_);
    ++executing_;
  }
  task();
  {
    MutexLock lk(mutex_);
    --executing_;
    ++epoch_;  // completions re-wake sleepers: a finished task may unblock
               // the shutdown drain or have spawned work into its deque
  }
  wake_.notify_all();
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_index = index;
  std::function<void()> task;
  for (;;) {
    std::uint64_t seen;
    {
      MutexLock lk(mutex_);
      seen = epoch_;
    }
    while (pop_task(index, task)) {
      run_task(task);
      task = nullptr;
    }
    MutexLock lk(mutex_);
    if (epoch_ != seen) continue;  // raced with a submit: rescan
    if (stop_ && executing_ == 0) return;
    while (!((stop_ && executing_ == 0) || epoch_ != seen)) wake_.wait(mutex_);
    if (epoch_ == seen) return;  // stop with nothing left to drain
  }
}

ScopedPoolOverride::ScopedPoolOverride(ThreadPool& pool)
    : previous_(g_global_override.exchange(&pool, std::memory_order_acq_rel)) {}

ScopedPoolOverride::~ScopedPoolOverride() {
  g_global_override.store(previous_, std::memory_order_release);
}

TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool ? *pool : ThreadPool::global()) {}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // wait() was never called: the task's exception has nowhere to go.
  }
}

void TaskGroup::run(std::function<void()> task) {
  {
    MutexLock lk(mutex_);
    ++pending_;
    ++queued_;
  }
  pool_.submit([this, task = std::move(task)]() mutable {
    {
      MutexLock lk(mutex_);
      --queued_;
    }
    try {
      task();
    } catch (...) {
      MutexLock lk(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    MutexLock lk(mutex_);
    if (--pending_ == 0) done_.notify_all();
  });
}

void TaskGroup::wait() {
  for (;;) {
    {
      MutexLock lk(mutex_);
      if (pending_ == 0) break;
      if (queued_ == 0) {
        // Every remaining task is in flight on some other thread; it will
        // notify on completion.
        while (pending_ > 0 && queued_ == 0) done_.wait(mutex_);
        continue;
      }
    }
    // Group tasks are still sitting in a queue: help instead of sleeping
    // (the helper may pick up unrelated tasks too — still progress).
    pool_.try_run_one();
  }
  MutexLock lk(mutex_);
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool_ptr, std::size_t grain) {
  if (begin >= end) return;
  ThreadPool& pool = pool_ptr ? *pool_ptr : ThreadPool::global();
  const std::size_t n = end - begin;
  if (grain == 0) {
    const std::size_t chunks = std::max<std::size_t>(1, pool.thread_count() * 4);
    grain = std::max<std::size_t>(1, n / chunks);
  }
  if (pool.thread_count() <= 1 || n <= grain) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  TaskGroup group(&pool);
  for (std::size_t lo = begin; lo < end; lo += grain) {
    const std::size_t hi = std::min(end, lo + grain);
    group.run([&body, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }
  group.wait();
}

}  // namespace vmcw
