// Lint fixture (never compiled): raw thread-pool use in result-affecting
// code — completion order is scheduling-dependent. Both the include and the
// call must be flagged [pool-order].
#include "common/thread_pool.h"

void bad_fanout() {
  anu::ThreadPool::global().run_indexed(2, [](std::size_t) {});
}
