// Persistent thread pool with one scheduler: a per-batch job cursor.
//
// One pool of workers lives for the process (ThreadPool::global()), so a
// 200-seed sweep does not pay thread creation per run_indexed call. The
// workers wait on one mutex-guarded queue of helper requests. A
// run_indexed batch of P participants posts P-1 requests and then works
// on the batch itself; every participant, caller included, claims the next
// index from one atomic cursor until the cursor passes the end. Because
// the caller always participates, a batch completes even when every pool
// worker is busy with other batches, which is what makes nested
// run_indexed calls (a job that itself fans out) deadlock-free. Helper
// requests that reach a worker after their batch drained find the cursor
// closed and return.
//
// Exception handling: the first job that throws closes the cursor by
// exchanging it to the batch size. A job is therefore abandoned when it
// had not been claimed by the time the failing job's exception reached the
// pool. The jobs that ran are exactly a prefix [0, k) of the batch, and the
// abandoned suffix is counted once in StatsSnapshot::abandoned. The first
// exception is rethrown on the calling thread after the batch drains.
//
// Determinism is the caller's contract: jobs must not share mutable state,
// so results are a pure function of the job list, independent of the
// parallelism level — see driver::run_indexed and the (base_seed,
// task_index) RNG substream convention in common/rng.h.
//
// Locking discipline is machine-checked: guarded members carry
// ANU_GUARDED_BY and the clang CI legs compile with -Wthread-safety
// -Werror (docs/static-analysis.md); the TSan CI leg runs the pool suite
// under ThreadSanitizer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace anu {

class ThreadPool {
 public:
  /// Advisory counters, readable while the pool runs. Never feed them into
  /// experiment results — scheduling is timing-dependent by nature
  /// (tools/anu_lint.py bans completion-order dependence).
  struct StatsSnapshot {
    std::uint64_t abandoned = 0;  // batch jobs skipped after a throw
  };

  /// Spawns `workers` threads (0 = hardware concurrency). Idle workers
  /// sleep on a condition variable; an idle pool costs no CPU.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, created on first use.
  [[nodiscard]] static ThreadPool& global();

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  [[nodiscard]] StatsSnapshot stats() const;

  /// Runs fn(0..count) across at most `parallelism` threads (the caller
  /// plus parallelism-1 pool workers; 0 = caller + all workers) and blocks
  /// until every index has run or been abandoned. If any call throws, the
  /// first exception is rethrown here after the batch drains; jobs not yet
  /// claimed when the failing job's exception reached the pool are
  /// abandoned. parallelism == 1 runs inline, in index order. Safe to call
  /// from inside a batch job (nested batches cannot deadlock: the nested
  /// caller executes its own jobs).
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& fn,
                   std::size_t parallelism = 0);

 private:
  struct Batch;

  void worker_loop();
  /// Claims and runs indices of `batch` until its cursor passes the end.
  void work_on(Batch& batch);

  // Immutable after construction.
  std::vector<std::thread> threads_;

  Mutex mutex_;
  CondVar wake_;  // signalled on a new request and on stop
  // One entry per requested helper; a worker pops one and works on it.
  std::deque<std::shared_ptr<Batch>> requests_ ANU_GUARDED_BY(mutex_);
  bool stop_ ANU_GUARDED_BY(mutex_) = false;

  std::atomic<std::uint64_t> abandoned_{0};
};

}  // namespace anu
