// Shared plumbing for the benchmark workloads: options, the result record,
// quantiles, and the span recorder that writes Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the process started timing.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) / 1e3;
}
[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}
[[nodiscard]] inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) / 1e9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (relative to the working directory) for span files and
  /// scratch files such as the anu_serve config.
  std::string out_dir = ".bench_build/perfbench";
};

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end"); README.md gives each one's meaning per workload.
struct EndToEnd {
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double op_p50_us = 0.0;
  double op_tail_us = 0.0;
};

/// Correctness verdict plus attempted/failed operation counts of one run.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Records a failed output check; the run then reports correct=false and
  /// exits non-zero.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return errors.empty(); }
};

/// Per-layer metric values by name (BENCHMARK.json "per_layer").
using Layers = std::map<std::string, double>;

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Coefficient of variation (population stddev / mean); 0 when empty.
[[nodiscard]] double coefficient_of_variation(const std::vector<double>& v);

/// In-memory span recorder. Spans are kept until the run ends and then
/// written as Chrome trace-event JSON (the object form with "traceEvents",
/// which Perfetto and chrome://tracing both load). A disabled recorder
/// records nothing, so untraced phases pay only a branch.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records one complete span on track `tid`. `args` is a JSON object body
  /// without braces (e.g. "\"round\":3"), or empty.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint32_t tid = 0, std::string args = {});
  /// Names a track in the trace viewer.
  void name_track(std::uint32_t tid, std::string name);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Writes the trace file; false when it cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint32_t tid;
    std::string args;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::map<std::uint32_t, std::string> tracks_;
};

/// One benchmark workload. setup() builds the inputs and the system under
/// test; measure() runs the timed phase for `seconds`, recording spans and
/// per-layer values when `spans` is enabled. The traced run calls measure()
/// twice (untraced, then traced) on one setup, so the difference between
/// the two is the tracing overhead.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Returns the set-up time in seconds (median of repeated set-ups).
  virtual double setup(Verdict& verdict) = 0;
  virtual EndToEnd measure(double seconds, Spans& spans, Layers& layers,
                           Verdict& verdict) = 0;
  /// Final checks after all measuring (e.g. child-process exit status).
  virtual void finish(Verdict& verdict) { (void)verdict; }
};

}  // namespace perfbench
