#include "common/thread_pool.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <utility>

namespace anu {

// ---------------------------------------------------------------------------
// Pool level: per-worker task deques + steal-half + idle parking.

struct ThreadPool::Worker {
  Mutex mutex;
  std::deque<Task> queue ANU_GUARDED_BY(mutex);
};

namespace {
// Which pool worker (if any) the current thread is; participants use it to
// push nested submissions onto their own deque.
thread_local std::size_t t_worker_index = static_cast<std::size_t>(-1);
}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(park_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  park_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::StatsSnapshot ThreadPool::stats() const {
  StatsSnapshot s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.abandoned = abandoned_.load(std::memory_order_acquire);
  return s;
}

void ThreadPool::submit(Task task) {
  const std::size_t self = t_worker_index;
  std::size_t target;
  if (self < workers_.size() && threads_[self].get_id() ==
                                    std::this_thread::get_id()) {
    target = self;  // a pool worker of *this* pool: keep it local
  } else {
    target = next_worker_.fetch_add(1, std::memory_order_relaxed) %
             workers_.size();
  }
  {
    const MutexLock lock(workers_[target]->mutex);
    workers_[target]->queue.push_back(std::move(task));
  }
  // The increment must synchronize with the parking predicate, or a worker
  // that just evaluated pending_ == 0 could sleep through this wakeup.
  {
    const MutexLock lock(park_mutex_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  park_cv_.notify_one();
}

bool ThreadPool::take_task(std::size_t self, Task& out) {
  // Own deque first, newest task (back) — the classic owner end.
  {
    Worker& me = *workers_[self];
    const MutexLock lock(me.mutex);
    if (!me.queue.empty()) {
      out = std::move(me.queue.back());
      me.queue.pop_back();
      pending_.fetch_sub(1, std::memory_order_acquire);
      return true;
    }
  }
  // Steal from the richest victim: take the front half of its deque (oldest
  // tasks), executing one and re-queueing the rest locally. One steal lock
  // then pays for several pops.
  std::size_t victim = workers_.size();
  std::size_t best = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (w == self) continue;
    const MutexLock lock(workers_[w]->mutex);
    if (workers_[w]->queue.size() > best) {
      best = workers_[w]->queue.size();
      victim = w;
    }
  }
  if (victim == workers_.size()) return false;
  std::deque<Task> haul;
  {
    Worker& v = *workers_[victim];
    const MutexLock lock(v.mutex);
    const std::size_t take = (v.queue.size() + 1) / 2;
    for (std::size_t i = 0; i < take; ++i) {
      haul.push_back(std::move(v.queue.front()));
      v.queue.pop_front();
    }
  }
  if (haul.empty()) return false;  // raced: victim drained meanwhile
  steals_.fetch_add(1, std::memory_order_relaxed);
  out = std::move(haul.front());
  haul.pop_front();
  pending_.fetch_sub(1, std::memory_order_acquire);
  if (!haul.empty()) {
    Worker& me = *workers_[self];
    const MutexLock lock(me.mutex);
    for (Task& t : haul) me.queue.push_back(std::move(t));
  }
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_worker_index = self;
  for (;;) {
    Task task;
    if (take_task(self, task)) {
      task();
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    parks_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(park_mutex_);
    park_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

// ---------------------------------------------------------------------------
// Batch level: sharded job indices, caller-helps, exception aggregation.

struct ThreadPool::BatchState {
  struct Shard {
    Mutex mutex;
    std::deque<std::size_t> indices ANU_GUARDED_BY(mutex);
  };

  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::uint64_t>* abandoned = nullptr;  // the pool's counter
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<bool> failed{false};
  Mutex error_mutex;
  std::exception_ptr first_error ANU_GUARDED_BY(error_mutex);
  std::size_t error_count ANU_GUARDED_BY(error_mutex) = 0;

  // Jobs not yet finished or abandoned; the caller blocks until 0.
  std::atomic<std::size_t> remaining{0};
  Mutex done_mutex;
  CondVar done_cv;  // signalled under done_mutex

  /// Pops one index for participant `slot`: the front of its own shard
  /// (index order, so a batch's first job runs first), else the back half
  /// of the richest sibling shard (the end its owner reaches last).
  bool take_index(std::size_t slot, std::size_t& out) {
    {
      Shard& mine = *shards[slot];
      const MutexLock lock(mine.mutex);
      if (!mine.indices.empty()) {
        out = mine.indices.front();
        mine.indices.pop_front();
        return true;
      }
    }
    std::size_t victim = shards.size();
    std::size_t best = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (s == slot) continue;
      const MutexLock lock(shards[s]->mutex);
      if (shards[s]->indices.size() > best) {
        best = shards[s]->indices.size();
        victim = s;
      }
    }
    if (victim == shards.size()) return false;
    std::deque<std::size_t> haul;
    {
      Shard& v = *shards[victim];
      const MutexLock lock(v.mutex);
      const auto split = v.indices.end() -
                         static_cast<std::ptrdiff_t>((v.indices.size() + 1) / 2);
      haul.assign(split, v.indices.end());
      v.indices.erase(split, v.indices.end());
    }
    if (haul.empty()) return false;
    out = haul.front();
    haul.pop_front();
    if (!haul.empty()) {
      Shard& mine = *shards[slot];
      const MutexLock lock(mine.mutex);
      mine.indices.insert(mine.indices.end(), haul.begin(), haul.end());
    }
    return true;
  }

  void finish_one() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const MutexLock lock(done_mutex);
      done_cv.notify_all();
    }
  }
};

void ThreadPool::participate(const std::shared_ptr<BatchState>& batch,
                             std::size_t slot) {
  std::size_t index;
  while (batch->take_index(slot, index)) {
    if (batch->failed.load(std::memory_order_acquire)) {
      // Abandoned: counted, never run. Release pairs with stats(), so a
      // reader that sees the count also sees the failure flag.
      batch->abandoned->fetch_add(1, std::memory_order_release);
      batch->finish_one();
      continue;
    }
    try {
      (*batch->fn)(index);
    } catch (...) {
      const MutexLock lock(batch->error_mutex);
      if (!batch->first_error) batch->first_error = std::current_exception();
      ++batch->error_count;
      batch->failed.store(true, std::memory_order_release);
    }
    batch->finish_one();
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

  auto batch = std::make_shared<BatchState>();
  batch->fn = &fn;
  batch->abandoned = &abandoned_;
  batch->remaining.store(count, std::memory_order_relaxed);
  batch->shards.reserve(parallelism);
  for (std::size_t s = 0; s < parallelism; ++s) {
    batch->shards.push_back(std::make_unique<BatchState::Shard>());
  }
  // Round-robin sharding: shard s starts with indices s, s+P, s+2P, ...
  // Runs before the first submit(), so no shard mutex is contended yet;
  // the analysis still wants the capability held for the guarded deque.
  for (std::size_t i = 0; i < count; ++i) {
    BatchState::Shard& shard = *batch->shards[i % parallelism];
    const MutexLock lock(shard.mutex);
    shard.indices.push_back(i);
  }
  // Helpers run on pool workers; stale ones (arriving after the batch
  // drained) find empty shards and return. The shared_ptr keeps the state
  // alive for them.
  for (std::size_t s = 1; s < parallelism; ++s) {
    submit([batch, s] { participate(batch, s); });
  }
  // The caller is participant 0: guaranteed forward progress even when
  // every pool worker is busy (including with the batch that spawned us).
  participate(batch, 0);
  {
    MutexLock lock(batch->done_mutex);
    batch->done_cv.wait(lock, [&] {
      return batch->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  // All participants have finished (remaining == 0) and finish_one()'s
  // release sequence happened-before our acquire, so first_error is
  // quiescent; the lock keeps the analysis and TSan both satisfied.
  //
  // Move (not copy) the exception out: a stale helper can drop the last
  // BatchState reference on a pool worker after we return, and that must
  // not release the exception object a caller's catch block may still be
  // reading (the refcount lives in libstdc++'s uninstrumented runtime, so
  // TSan flags the cross-thread release). After the move the batch holds
  // nothing; the exception dies on the caller thread.
  std::exception_ptr error;
  {
    const MutexLock lock(batch->error_mutex);
    error = std::move(batch->first_error);
    batch->first_error = nullptr;  // moved-from exception_ptr is unspecified
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_batch(const std::vector<Task>& jobs,
                           std::size_t parallelism) {
  run_indexed(jobs.size(), [&jobs](std::size_t i) { jobs[i](); },
              parallelism);
}

}  // namespace anu
