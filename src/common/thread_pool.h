// Persistent work-stealing thread pool.
//
// One pool of workers lives for the process (ThreadPool::global()), so a
// 200-seed sweep does not pay thread creation per run_parallel call the way
// the old spawn-per-batch scheme did. Scheduling is two-level:
//
//   * Pool level: each worker owns a deque of submitted tasks. A worker
//     pops from the back of its own deque (newest first, cache-warm),
//     steals the front half of the richest other deque when its own runs
//     dry (steal-half amortizes the steal lock across many tasks), and
//     parks on a condition variable when the whole pool is empty.
//   * Batch level: run_batch shards its jobs round-robin across one
//     index-deque per participant. The calling thread is always
//     participant 0 and executes jobs itself, so a batch completes even if
//     every pool worker is busy with other batches — which is what makes
//     nested run_batch calls (a job that itself fans out) deadlock-free by
//     construction. A participant runs its own shard in index order and,
//     once it is empty, steals the back half of the richest sibling shard.
//
// Exception handling aggregates: every throwing job is counted, the first
// exception is kept and rethrown on the calling thread after the batch
// drains (remaining jobs are abandoned, never half-run, and counted in
// StatsSnapshot::abandoned). Shards run front to back, so when job 0 throws
// while the other participants are busy in their own first jobs, every job
// not yet started is abandoned. Determinism is the
// caller's contract: jobs must not share mutable state, so results are a
// pure function of the job list, independent of the parallelism level —
// see driver::run_indexed and the (base_seed, task_index) RNG substream
// convention in common/rng.h.
//
// Locking discipline is machine-checked: guarded members carry
// ANU_GUARDED_BY and the clang CI legs compile with -Wthread-safety
// -Werror (docs/static-analysis.md); the TSan CI leg runs the pool suite
// under ThreadSanitizer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace anu {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Monotonic scheduling counters, readable while the pool runs. Counters
  /// are advisory (relaxed atomics): totals are exact once the pool is
  /// quiescent, transient reads may lag individual workers. Never feed
  /// them into experiment results — scheduling is timing-dependent by
  /// nature (tools/anu_lint.py bans completion-order dependence).
  struct StatsSnapshot {
    std::uint64_t tasks_executed = 0;  // pool-level tasks run to completion
    std::uint64_t steals = 0;          // successful steal-half raids
    std::uint64_t parks = 0;           // times a worker went to sleep
    std::uint64_t abandoned = 0;       // batch jobs skipped after a throw
  };

  /// Spawns `workers` threads (0 = hardware concurrency). Workers park
  /// when idle; an idle pool costs no CPU.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, created on first use.
  [[nodiscard]] static ThreadPool& global();

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  [[nodiscard]] StatsSnapshot stats() const;

  /// Fire-and-forget: enqueues one task. From a pool worker it lands on
  /// that worker's own deque; from outside, round-robin across workers.
  void submit(Task task);

  /// Runs fn(0..count) across at most `parallelism` threads (the caller
  /// plus parallelism-1 pool workers; 0 = caller + all workers) and blocks
  /// until every index has run or been abandoned. If any call throws, the
  /// first exception is rethrown here after the batch drains; jobs not yet
  /// started by then are abandoned. parallelism == 1 runs inline, in index
  /// order. Safe to call from inside a pool task (nested batches cannot
  /// deadlock: the nested caller executes its own jobs).
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& fn,
                   std::size_t parallelism = 0);

  /// run_indexed over an explicit job list.
  void run_batch(const std::vector<Task>& jobs, std::size_t parallelism = 0);

 private:
  struct Worker;
  struct BatchState;

  void worker_loop(std::size_t self);
  [[nodiscard]] bool take_task(std::size_t self, Task& out);
  static void participate(const std::shared_ptr<BatchState>& batch,
                          std::size_t slot);

  // Immutable after construction (worker threads only read them), so not
  // guarded by any mutex.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  Mutex park_mutex_;
  CondVar park_cv_;  // signalled under park_mutex_
  // stop_/pending_ are atomics readable without the mutex, but every write
  // that must wake a parked worker happens under park_mutex_ so it cannot
  // slip between a worker's predicate check and its wait.
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> pending_{0};      // submitted, not yet claimed
  std::atomic<std::size_t> next_worker_{0};  // external-submit round robin

  // Stats (advisory, relaxed — see StatsSnapshot).
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> abandoned_{0};
};

}  // namespace anu
