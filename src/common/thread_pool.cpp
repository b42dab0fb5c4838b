#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace anu {

struct ThreadPool::Batch {
  Batch(std::size_t n, const std::function<void(std::size_t)>& f)
      : count(n), fn(f), unfinished(n) {}

  const std::size_t count;
  const std::function<void(std::size_t)>& fn;
  // The next index to claim. Claims past the end and the close after a
  // throw leave it >= count, so a closed batch never touches `fn` again.
  std::atomic<std::size_t> cursor{0};

  Mutex mutex;
  CondVar drained;  // signalled when unfinished reaches 0
  // Jobs neither finished nor abandoned; the caller blocks until 0.
  std::size_t unfinished ANU_GUARDED_BY(mutex);
  std::exception_ptr first_error ANU_GUARDED_BY(mutex);
};

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::StatsSnapshot ThreadPool::stats() const {
  StatsSnapshot s;
  s.abandoned = abandoned_.load(std::memory_order_acquire);
  return s;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      MutexLock lock(mutex_);
      while (requests_.empty() && !stop_) wake_.wait(lock);
      if (requests_.empty()) return;  // stopping, nothing left to help
      batch = std::move(requests_.front());
      requests_.pop_front();
    }
    work_on(*batch);
  }
}

void ThreadPool::work_on(Batch& batch) {
  for (;;) {
    const std::size_t index =
        batch.cursor.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.count) return;
    std::size_t settled = 1;  // this job, plus the suffix it abandons
    std::exception_ptr error;
    try {
      batch.fn(index);
    } catch (...) {
      error = std::current_exception();
      // Close the cursor. Indices below `claimed` ran or are running; the
      // rest are abandoned here, once, however many jobs throw.
      const std::size_t claimed =
          batch.cursor.exchange(batch.count, std::memory_order_relaxed);
      if (claimed < batch.count) {
        settled += batch.count - claimed;
        // Release pairs with stats(): a reader that sees the count knows
        // the cursor is closed.
        abandoned_.fetch_add(batch.count - claimed, std::memory_order_release);
      }
    }
    const MutexLock lock(batch.mutex);
    if (error && !batch.first_error) batch.first_error = std::move(error);
    batch.unfinished -= settled;
    if (batch.unfinished == 0) batch.drained.notify_all();
  }
}

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t parallelism) {
  if (count == 0) return;
  if (parallelism == 0) parallelism = worker_count() + 1;
  parallelism = std::min({parallelism, worker_count() + 1, count});
  if (parallelism <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Helpers share ownership: a request popped after the batch drained
  // still needs the (closed) cursor to find there is nothing left.
  const auto batch = std::make_shared<Batch>(count, fn);
  {
    const MutexLock lock(mutex_);
    for (std::size_t h = 1; h < parallelism; ++h) requests_.push_back(batch);
  }
  for (std::size_t h = 1; h < parallelism; ++h) wake_.notify_one();
  // The caller participates: forward progress even when every pool worker
  // is busy, including with the batch that spawned this one.
  work_on(*batch);

  // Move (not copy) the exception out: a stale helper can drop the last
  // Batch reference on a pool worker after we return, and that must not
  // release the exception object a caller's catch block may still be
  // reading (the refcount lives in libstdc++'s uninstrumented runtime, so
  // TSan flags the cross-thread release). After the move the batch holds
  // nothing; the exception dies on the caller thread.
  std::exception_ptr error;
  {
    MutexLock lock(batch->mutex);
    while (batch->unfinished != 0) batch->drained.wait(lock);
    error = std::move(batch->first_error);
    batch->first_error = nullptr;  // moved-from exception_ptr is unspecified
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace anu
