// perfbench — the repository benchmark driver.
//
//   perfbench --workload <paper_sim|retune_10k|serve_route> --seed N
//             --seconds S --trace <0|1> [--out-dir DIR]
//
// Untraced runs print the end-to-end metrics; traced runs (--trace 1)
// measure the workload twice on one set-up, untraced and then traced,
// print both values of each end-to-end metric and their difference (the
// tracing overhead), print every per-layer metric, and write the recorded
// spans as Chrome trace-event JSON. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
// output check passed, 1 when one failed, 2 on bad arguments.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

struct EndToEndDef {
  const char* name;
  const char* unit;
  double EndToEnd::*field;
  /// In the result line (and BENCHMARK.json). The others are printed for
  /// reading only: their run-to-run spread on a shared host is wider than
  /// any bound the benchmark may set (README.md, "Measured spread").
  bool gated;
};

// The gated entries and kPerLayer must match BENCHMARK.json; run.py checks
// the printed names and units against it.
constexpr EndToEndDef kEndToEnd[] = {
    {"setup_s", "s", &EndToEnd::setup_s, true},
    {"throughput_per_s", "1/s", &EndToEnd::throughput_per_s, true},
    {"op_p50_us", "us", &EndToEnd::op_p50_us, false},
    {"op_tail_us", "us", &EndToEnd::op_tail_us, false},
};

constexpr MetricDef kPerLayer[] = {
    // paper_sim
    {"workload.synth_ms", "ms"},
    {"driver.run_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_request", "ratio"},
    {"sim.events_per_s", "1/s"},
    {"sim.queue.max_pending", "count"},
    {"sim.queue.slab_high_water", "count"},
    {"sim.queue.rung_spills", "count"},
    {"sim.in_flight_at_horizon", "count"},
    {"core.tune_us", "us"},
    {"balance.server_for_calls", "count"},
    // retune_10k
    {"core.tuner_us", "us"},
    {"core.normalize_us", "us"},
    {"core.rebalance_us", "us"},
    {"core.snapshot_us", "us"},
    {"core.from_snapshot_us", "us"},
    {"core.resolve_us", "us"},
    {"core.moves_per_round", "count"},
    {"core.membership_us", "us"},
    {"core.round_ms_2560", "ms"},
    {"core.round_scaling_exponent", "ratio"},
    {"proto.encode_us", "us"},
    {"proto.decode_us", "us"},
    {"proto.update_bytes", "bytes"},
    // retune_10k and serve_route
    {"hash.route_ns", "ns"},
    {"hash.probes_per_route", "ratio"},
    // serve_route
    {"runtime.server_cpu_us_per_route", "us"},
    {"runtime.server_sys_share", "fraction"},
    {"runtime.route_share", "fraction"},
    {"runtime.retunes", "count"},
    {"loadgen.cpu_share", "fraction"},
    // all workloads
    {"outcome.vs_ideal_ratio", "ratio"},
    {"outcome.latency_cv", "ratio"},
    {"outcome.moved_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_sim|retune_10k|serve_route>"
               " --seed N --seconds S --trace <0|1>\n"
               "                 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--out-dir") {
      opts.out_dir = v;
    } else {
      return usage();
    }
  }
  if (!(opts.seconds > 0.0)) return usage();
  std::unique_ptr<Workload> workload = make_workload(opts);
  if (!workload) return usage();
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);

  Verdict verdict;
  Layers layers;
  const double setup_s = workload->setup(verdict);
  EndToEnd result;
  if (!opts.trace) {
    Spans off(false);
    result = workload->measure(opts.seconds, off, layers, verdict);
  } else {
    Spans off(false);
    Layers unused;
    const EndToEnd untraced =
        workload->measure(opts.seconds / 2, off, unused, verdict);
    Spans spans(true);
    result = workload->measure(opts.seconds / 2, spans, layers, verdict);
    std::printf("tracing overhead (untraced -> traced, half the seconds each):\n");
    for (const EndToEndDef& def : kEndToEnd) {
      if (def.field == &EndToEnd::setup_s) continue;  // shared by both halves
      const double u = untraced.*def.field;
      const double t = result.*def.field;
      std::printf("  %-18s untraced=%-14s traced=%-14s diff=%s (%+.2f%%)\n",
                  def.name, number(u).c_str(), number(t).c_str(),
                  number(t - u).c_str(), u != 0.0 ? 100.0 * (t - u) / u : 0.0);
    }
    if (untraced.throughput_per_s > 0.0) {
      layers["trace.overhead_pct"] =
          100.0 * (untraced.throughput_per_s - result.throughput_per_s) /
          untraced.throughput_per_s;
    }
    layers["trace.spans"] = static_cast<double>(spans.size());
    const std::string path = opts.out_dir + "/trace-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".json";
    if (spans.write_chrome_trace(path)) {
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    } else {
      verdict.check(false, "cannot write span file " + path);
    }
  }
  result.setup_s = setup_s;
  workload->finish(verdict);
  verdict.attempted = std::max<std::uint64_t>(verdict.attempted, 1);

  std::string metrics;
  auto emit = [&](const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      verdict.check(false, std::string("metric ") + name + " is not finite");
      value = 0.0;
    }
    std::printf("  %-32s %-16s %s\n", name, number(value).c_str(), unit);
    if (!metrics.empty()) metrics += ",";
    metrics.append("\"").append(name).append("\":{\"value\":");
    metrics.append(number(value)).append(",\"unit\":\"").append(unit);
    metrics.append("\"}");
  };
  std::printf("%s seed=%llu seconds=%s trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              number(opts.seconds).c_str(), opts.trace ? 1 : 0);
  if (!opts.trace) {
    for (const EndToEndDef& def : kEndToEnd) {
      if (def.gated) {
        emit(def.name, result.*def.field, def.unit);
      } else {
        std::printf("  %-32s %-16s %s (not gated)\n", def.name,
                    number(result.*def.field).c_str(), def.unit);
      }
    }
  } else {
    for (const MetricDef& def : kPerLayer) {
      const auto it = layers.find(def.name);
      // A layer the workload does not exercise reads 0.
      emit(def.name, it == layers.end() ? 0.0 : it->second, def.unit);
    }
  }
  for (const auto& [name, value] : layers) {
    bool known = false;
    for (const MetricDef& def : kPerLayer) known |= name == def.name;
    verdict.check(known, "workload reported unknown layer metric " + name);
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              verdict.correct() ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed),
              metrics.c_str());
  return verdict.correct() ? 0 : 1;
}
