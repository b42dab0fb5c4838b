// Tests for the persistent pool and its per-batch job cursor: determinism
// at any parallelism level, the structural parallelism cap, exception
// aggregation, the nested-batch deadlock regression, and a seeded stress
// soak (ctest label: pool). The abandonment contract is tested through
// driver::run_indexed in sweep_test.cpp.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace anu {
namespace {

/// A deterministic per-task computation driven by the (base_seed, index)
/// substream convention — the same shape a multi-seed experiment batch has.
std::uint64_t substream_work(std::uint64_t base, std::size_t index) {
  Xoshiro256 rng(substream_seed(base, index));
  std::uint64_t acc = 0;
  const std::size_t steps = 100 + rng.next_below(400);
  for (std::size_t i = 0; i < steps; ++i) acc ^= rng.next();
  return acc;
}

std::vector<std::uint64_t> run_wave(ThreadPool& pool, std::uint64_t base,
                                    std::size_t tasks,
                                    std::size_t parallelism) {
  std::vector<std::uint64_t> out(tasks);
  pool.run_indexed(
      tasks, [&](std::size_t i) { out[i] = substream_work(base, i); },
      parallelism);
  return out;
}

TEST(ThreadPool, RunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  pool.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, SameResultsAtAnyParallelism) {
  // The determinism contract behind `anu_sim --jobs`: bit-identical output
  // whether the batch runs inline or 8-wide.
  ThreadPool pool(8);
  const auto sequential = run_wave(pool, 42, 200, 1);
  for (const std::size_t jobs : {2u, 3u, 8u, 64u}) {
    EXPECT_EQ(run_wave(pool, 42, 200, jobs), sequential) << jobs;
  }
}

TEST(ThreadPool, ParallelismCapIsStructural) {
  // At most `cap` tasks can ever be in flight: the batch has exactly cap
  // participants (caller + cap-1 workers), so the high-water mark cannot
  // exceed it even under scheduling jitter.
  ThreadPool pool(8);
  constexpr std::size_t kCap = 3;
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};
  pool.run_indexed(
      64,
      [&](std::size_t) {
        const int now = ++active;
        int seen = high_water.load();
        while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        --active;
      },
      kCap);
  EXPECT_LE(high_water.load(), static_cast<int>(kCap));
  EXPECT_GE(high_water.load(), 1);
}

TEST(ThreadPool, MidBatchExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.run_indexed(64, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error("task 13 failed");
      ++ran;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 13 failed");
  }
  EXPECT_LT(ran.load(), 64);
}

TEST(ThreadPool, AllThrowingTasksYieldOneException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_indexed(
                   32, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
}

TEST(ThreadPool, PoolSurvivesFailedBatch) {
  // Exception aggregation must leave the pool reusable: a failed batch is
  // drained, not wedged.
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_indexed(
                   16, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.run_indexed(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

// Regression: with the old spawn-per-batch scheme a nested parallel call
// from inside a worker was fine (fresh threads), but a naive pool turns it
// into a deadlock — every worker blocks waiting for subtasks that no free
// worker exists to run. The caller-participates design must complete
// nested batches even on a single-worker pool.
TEST(ThreadPool, NestedSubmitDoesNotDeadlock) {
  ThreadPool pool(1);  // worst case: zero spare workers for inner batches
  std::atomic<int> inner_total{0};
  pool.run_indexed(4, [&](std::size_t) {
    pool.run_indexed(8, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, DeeplyNestedBatches) {
  ThreadPool pool(4);
  std::atomic<int> leaves{0};
  pool.run_indexed(3, [&](std::size_t) {
    pool.run_indexed(3, [&](std::size_t) {
      pool.run_indexed(3, [&](std::size_t) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves.load(), 27);
}

TEST(ThreadPool, NestedExceptionCrossesBatchBoundary) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_indexed(2,
                                [&](std::size_t) {
                                  pool.run_indexed(4, [](std::size_t i) {
                                    if (i == 3) {
                                      throw std::runtime_error("inner");
                                    }
                                  });
                                }),
               std::runtime_error);
}

TEST(ThreadPool, GlobalPoolIsPersistent) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.worker_count(), 1u);
  std::atomic<int> count{0};
  a.run_indexed(32, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

// Seeded stress soak (label: pool): many waves of uneven task counts at
// randomized parallelism, every wave validated against its sequential
// twin, so cursor contention and pool-reuse churn are exercised hard but
// reproducibly — one seed reproduces one schedule of waves.
TEST(ThreadPoolStress, SeededWavesMatchSequential) {
  ThreadPool pool(8);
  Xoshiro256 rng(20260806);
  for (int wave = 0; wave < 25; ++wave) {
    const std::uint64_t base = rng.next();
    const std::size_t tasks = 1 + rng.next_below(300);
    const std::size_t jobs = 1 + rng.next_below(16);
    EXPECT_EQ(run_wave(pool, base, tasks, jobs),
              run_wave(pool, base, tasks, 1))
        << "wave " << wave << " tasks " << tasks << " jobs " << jobs;
  }
}

TEST(ThreadPoolStress, ConcurrentBatchesFromManyThreads) {
  // Several external threads drive batches through one pool at once; each
  // must see exactly its own results (batch state is per-call, the pool is
  // shared).
  ThreadPool pool(4);
  std::vector<std::thread> drivers;
  std::atomic<int> failures{0};
  for (std::uint64_t t = 0; t < 4; ++t) {
    drivers.emplace_back([&pool, &failures, t] {
      for (int round = 0; round < 10; ++round) {
        const std::uint64_t base = t * 1000 + static_cast<std::uint64_t>(round);
        if (run_wave(pool, base, 64, 4) != run_wave(pool, base, 64, 1)) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace anu
