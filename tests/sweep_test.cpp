// Tests for the parallel sweep utility.
#include "driver/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace anu::driver {
namespace {

TEST(Sweep, RunsAllJobs) {
  std::atomic<int> counter{0};
  run_indexed(50, [&](std::size_t) { ++counter; }, 4);
  EXPECT_EQ(counter.load(), 50);
}

TEST(Sweep, EmptyJobListIsNoop) {
  run_indexed(0, [](std::size_t) {}, 4);  // must not hang or crash
}

TEST(Sweep, SingleThreadFallback) {
  int counter = 0;  // non-atomic: safe because threads == 1
  run_indexed(10, [&](std::size_t) { ++counter; }, 1);
  EXPECT_EQ(counter, 10);
}

TEST(Sweep, ParallelMapPreservesOrder) {
  const std::function<int(std::size_t)> square = [](std::size_t i) {
    return static_cast<int>(i * i);
  };
  const auto results = parallel_map<int>(20, square, 4);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(Sweep, MoreThreadsThanJobs) {
  std::atomic<int> counter{0};
  run_indexed(1, [&](std::size_t) { ++counter; }, 16);
  EXPECT_EQ(counter.load(), 1);
}

// Regression: an exception escaping a worker thread used to reach the
// thread boundary and call std::terminate. It must instead surface on the
// calling thread, after every worker has joined.
TEST(Sweep, ThrowingJobRethrowsOnCaller) {
  const auto job = [](std::size_t i) {
    if (i == 7) throw std::runtime_error("job 7 failed");
  };
  EXPECT_THROW(run_indexed(32, job, 4), std::runtime_error);
}

/// Blocks until the global pool has abandoned jobs past `before`, i.e. until
/// a failing job's exception has reached the pool and closed its batch, or
/// until `deadline`.
void wait_for_abandonment(std::uint64_t before,
                          std::chrono::steady_clock::time_point deadline) {
  while (ThreadPool::global().stats().abandoned == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(Sweep, ThrowingJobAbandonsUnstartedJobs) {
  // Job 0 throws; every other job waits (up to a deadline) until the pool
  // has recorded the failure before it returns. Waiting on the pool rather
  // than on the throw matters: the exception takes time to unwind, and a
  // job that returned as soon as it saw `thrown` would let its participant
  // claim every remaining index before the pool's catch ran. Each
  // participant is then held by its current job, so at most parallelism-1
  // jobs start before the throw, and every job is either run or abandoned,
  // in any schedule.
  constexpr std::size_t kJobs = 1000;
  const std::size_t parallelism =
      std::min<std::size_t>(4, ThreadPool::global().worker_count() + 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const std::uint64_t abandoned_before = ThreadPool::global().stats().abandoned;
  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> ran{0};
  std::atomic<std::size_t> started_before_throw{0};
  const auto job = [&](std::size_t i) {
    ++ran;
    if (i == 0) {
      thrown = true;
      throw std::logic_error("poison");
    }
    if (!thrown) ++started_before_throw;
    wait_for_abandonment(abandoned_before, deadline);
  };
  EXPECT_THROW(run_indexed(kJobs, job, parallelism), std::logic_error);
  const std::uint64_t abandoned =
      ThreadPool::global().stats().abandoned - abandoned_before;
  EXPECT_LE(started_before_throw.load(), parallelism - 1);
  EXPECT_EQ(ran.load() + abandoned, kJobs);
  EXPECT_GT(abandoned, 0u);
}

TEST(Sweep, AbandonedJobsAreASuffix) {
  // Job 0 throws once 40 other jobs have finished; the jobs that start after
  // those 40 wait until the pool has recorded the failure. The pool hands
  // out indices in order from one cursor and closes it on the throw, so the
  // jobs that started are exactly [0, k): job 0, the first 40, and whatever
  // the other participants had claimed when the exception reached the
  // pool. A scheduler that deals indices out in shards leaves gaps.
  constexpr std::size_t kJobs = 1000;
  constexpr std::size_t kFinishFirst = 40;
  const std::size_t parallelism =
      std::min<std::size_t>(4, ThreadPool::global().worker_count() + 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const std::uint64_t abandoned_before = ThreadPool::global().stats().abandoned;
  std::vector<std::atomic<bool>> started(kJobs);
  std::atomic<std::size_t> launched{0};  // jobs other than 0 started so far
  std::atomic<std::size_t> finished{0};
  const auto job = [&](std::size_t i) {
    started[i] = true;
    if (i == 0) {
      while (finished < kFinishFirst &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      throw std::logic_error("poison");
    }
    if (++launched > kFinishFirst) {
      wait_for_abandonment(abandoned_before, deadline);
    }
    ++finished;
  };
  EXPECT_THROW(run_indexed(kJobs, job, parallelism), std::logic_error);
  std::size_t k = 0;  // length of the started prefix
  while (k < kJobs && started[k]) ++k;
  const auto total = static_cast<std::size_t>(
      std::count(started.begin(), started.end(), true));
  EXPECT_EQ(total, k) << "job " << k << " never started, yet later jobs did";
  EXPECT_GT(k, kFinishFirst);
  EXPECT_LT(k, kJobs);
}

TEST(Sweep, FirstExceptionWinsWhenSeveralThrow) {
  // All jobs throw; exactly one exception must come back (and not crash).
  const auto job = [](std::size_t) { throw std::runtime_error("boom"); };
  EXPECT_THROW(run_indexed(16, job, 8), std::runtime_error);
}

TEST(Sweep, SingleThreadPathAlsoPropagates) {
  const auto job = [](std::size_t) { throw std::runtime_error("solo"); };
  EXPECT_THROW(run_indexed(1, job, 1), std::runtime_error);
}

}  // namespace
}  // namespace anu::driver
