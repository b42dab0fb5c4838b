// The three benchmark workloads (README.md says why each was chosen).
#pragma once

#include <memory>

#include "common.h"

namespace perfbench {

std::unique_ptr<Workload> make_paper_sim(const Options& opts);
std::unique_ptr<Workload> make_retune_10k(const Options& opts);
std::unique_ptr<Workload> make_serve_route(const Options& opts);

/// The workload named by opts.workload, or null for an unknown name.
inline std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "paper_sim") return make_paper_sim(opts);
  if (opts.workload == "retune_10k") return make_retune_10k(opts);
  if (opts.workload == "serve_route") return make_serve_route(opts);
  return nullptr;
}

}  // namespace perfbench
