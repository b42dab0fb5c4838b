// Tests for the parallel sweep utility.
#include "driver/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

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

TEST(Sweep, ThrowingJobAbandonsUnstartedJobs) {
  // Job 0 throws; every other job waits (up to a deadline) for that throw
  // before it returns. Participants run their own shards in index order,
  // so job 0 is the caller's first job and each helper can have started at
  // most its own first job before the throw. Every job is then either run
  // or abandoned, in any schedule.
  constexpr std::size_t kJobs = 1000;
  const std::size_t parallelism =
      std::min<std::size_t>(4, ThreadPool::global().worker_count() + 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> ran{0};
  std::atomic<std::size_t> started_before_throw{0};
  const auto job = [&](std::size_t i) {
    ++ran;
    if (i == 0) {
      thrown = true;
      throw std::logic_error("poison");
    }
    if (thrown) return;
    ++started_before_throw;
    while (!thrown && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  const std::uint64_t abandoned_before = ThreadPool::global().stats().abandoned;
  EXPECT_THROW(run_indexed(kJobs, job, parallelism), std::logic_error);
  const std::uint64_t abandoned =
      ThreadPool::global().stats().abandoned - abandoned_before;
  EXPECT_LE(started_before_throw.load(), parallelism - 1);
  EXPECT_EQ(ran.load() + abandoned, kJobs);
  EXPECT_GT(abandoned, 0u);
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
