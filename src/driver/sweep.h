// Parallel parameter sweeps.
//
// Multi-configuration figures (Fig. 8's VP-count sweep, the tuner ablation)
// and multi-seed batches run many *independent* simulations; each owns its
// Simulation, Cluster and balancer, so the only shared state is the result
// slot each job writes — pre-sized so no synchronization beyond the batch
// completion is needed (C++ Core Guidelines CP.20-ish: no naked sharing).
//
// Execution rides the persistent work-stealing pool in common/thread_pool.h
// rather than spawning threads per call: `threads` caps the parallelism of
// one batch, not the number of threads created. Results must not depend on
// `threads`; derive any per-job randomness from substream_seed(base, index)
// (common/rng.h) so a sweep is bit-identical at any parallelism level.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace anu::driver {

/// Runs fn(0..count) with at most `threads`-way parallelism (0 = all
/// cores); blocks until all finish. Each call must be independent (no
/// shared mutable state between indices). If a call throws, unstarted
/// indices are abandoned and the first exception is rethrown on the calling
/// thread after the batch drains. threads == 1 runs inline, in index order.
void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn,
                 std::size_t threads = 0);

/// Maps `count` indices through `fn` in parallel and collects results in
/// index order.
template <class Result>
std::vector<Result> parallel_map(std::size_t count,
                                 const std::function<Result(std::size_t)>& fn,
                                 std::size_t threads = 0) {
  std::vector<Result> results(count);
  run_indexed(
      count, [&results, &fn](std::size_t i) { results[i] = fn(i); }, threads);
  return results;
}

}  // namespace anu::driver
