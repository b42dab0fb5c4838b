// paper_sim: the §5.1 paper-figure runs through driver::run_experiment.
//
// Each run derives kSeedsPerRun seeds from --seed; per seed it synthesizes
// the Pareto workload (66,401 requests, 50 file sets) and the
// DFSTrace-shaped trace (112,590 requests, 21 file sets) and replays both
// on the 1/3/5/7/9 cluster with the two-minute tuning interval through the
// paper's four systems. The timed phase cycles over those inputs, one
// thread, one run_experiment call per (input, system). The event kernel,
// workload synthesis and cluster queues do nearly all the work; the control
// plane almost none (k=5, at most 50 file sets).
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "driver/balancer_factory.h"
#include "driver/experiment.h"
#include "driver/paper.h"
#include "metrics/consistency.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace anu;
using driver::SystemKind;

constexpr std::size_t kSeedsPerRun = 2;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kServers = 5;
constexpr SystemKind kSystems[] = {SystemKind::kSimpleRandom,
                                   SystemKind::kDynPrescient,
                                   SystemKind::kVirtualProcessor,
                                   SystemKind::kAnu};
constexpr std::size_t kSystemCount = std::size(kSystems);

/// Counts server_for calls and times tune() of the balancer it wraps; the
/// traced phase puts it around ANU.
class TimedBalancer final : public balance::LoadBalancer {
 public:
  TimedBalancer(balance::LoadBalancer& inner, Spans& spans)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  void register_file_sets(
      const std::vector<workload::FileSet>& file_sets) override {
    inner_.register_file_sets(file_sets);
  }
  ServerId server_for(FileSetId id) const override {
    ++server_for_calls_;
    return inner_.server_for(id);
  }
  void report(ServerId server, const balance::ServerReport& r) override {
    inner_.report(server, r);
  }
  void set_oracle(const balance::OracleView& oracle) override {
    inner_.set_oracle(oracle);
  }
  balance::RebalanceResult tune() override {
    const std::int64_t t0 = now_ns();
    balance::RebalanceResult result = inner_.tune();
    const std::int64_t t1 = now_ns();
    spans_.add("core.tune", t0, t1);
    tune_ns_ += t1 - t0;
    ++tunes_;
    return result;
  }
  balance::RebalanceResult on_server_failed(ServerId id) override {
    return inner_.on_server_failed(id);
  }
  balance::RebalanceResult on_server_recovered(ServerId id) override {
    return inner_.on_server_recovered(id);
  }
  balance::RebalanceResult on_server_added(ServerId id) override {
    return inner_.on_server_added(id);
  }
  std::size_t shared_state_bytes() const override {
    return inner_.shared_state_bytes();
  }
  bool per_request() const override { return inner_.per_request(); }
  void bind_cluster(const balance::ClusterView* view) override {
    inner_.bind_cluster(view);
  }
  balance::DispatchDecision dispatch(FileSetId id, double demand) override {
    return inner_.dispatch(id, demand);
  }
  void on_server_idle(ServerId server) override {
    inner_.on_server_idle(server);
  }
  balance::BalanceCounters counters() const override {
    return inner_.counters();
  }

  std::uint64_t server_for_calls() const { return server_for_calls_; }
  std::int64_t tune_ns() const { return tune_ns_; }
  std::uint64_t tunes() const { return tunes_; }

 private:
  balance::LoadBalancer& inner_;
  Spans& spans_;
  mutable std::uint64_t server_for_calls_ = 0;
  std::int64_t tune_ns_ = 0;
  std::uint64_t tunes_ = 0;
};

/// The fields of a result that must repeat bit for bit when the same input
/// is replayed.
struct Fingerprint {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  std::size_t total_moved = 0;
  double mean_latency = 0.0;
  double max_latency = 0.0;
  std::vector<double> per_server_mean;
  std::vector<std::uint64_t> served;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(const driver::ExperimentResult& r) {
  Fingerprint f;
  f.issued = r.requests_issued;
  f.completed = r.requests_completed;
  f.events = r.events_executed;
  f.total_moved = r.total_moved;
  f.mean_latency = r.aggregate.mean();
  f.max_latency = r.aggregate.max();
  for (const auto& s : r.per_server) f.per_server_mean.push_back(s.mean());
  f.served = r.served;
  return f;
}

struct Input {
  std::string label;
  workload::Workload workload;
};

class PaperSim final : public Workload {
 public:
  explicit PaperSim(const Options& opts) : opts_(opts) {}

  double setup(Verdict&) override {
    std::vector<double> totals, synth;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const std::int64_t t0 = now_ns();
      std::vector<Input> inputs;
      for (std::size_t i = 0; i < kSeedsPerRun; ++i) {
        const std::uint64_t s = substream_seed(opts_.seed, 2 * i);
        const std::uint64_t t = substream_seed(opts_.seed, 2 * i + 1);
        inputs.push_back({"synthetic/" + std::to_string(s),
                          driver::paper_synthetic_workload(0.55, s)});
        inputs.push_back({"trace/" + std::to_string(t),
                          driver::paper_trace_workload(0.55, t)});
      }
      const std::int64_t t1 = now_ns();
      std::vector<std::unique_ptr<balance::LoadBalancer>> balancers;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (SystemKind kind : kSystems) balancers.push_back(make(kind));
      }
      const std::int64_t t2 = now_ns();
      synth.push_back(ns_to_ms(t1 - t0));
      totals.push_back(ns_to_s(t2 - t0));
      inputs_ = std::move(inputs);
    }
    synth_ms_ = median(synth);
    return median(totals);
  }

  EndToEnd measure(double seconds, Spans& spans, Layers& layers,
                   Verdict& verdict) override {
    const driver::ExperimentConfig config = driver::paper_experiment_config();
    std::uint64_t runs = 0;
    // Host seconds of each (input, system) run, one entry per repetition.
    std::vector<std::vector<double>> pair_s(inputs_.size() * kSystemCount);
    std::int64_t run_ns = 0;
    std::uint64_t events = 0, cycles = 0;
    std::int64_t tune_ns = 0;
    std::uint64_t tunes = 0, server_for_first_cycle = 0;
    spans.name_track(0, "paper_sim");
    const std::int64_t start = now_ns();
    // At least two cycles, so the first seed's inputs are always replayed
    // and compared against their first results.
    while (cycles < 2 || now_ns() - start < seconds * 1e9) {
      for (std::size_t i = 0; i < inputs_.size(); ++i) {
        const workload::Workload& w = inputs_[i].workload;
        for (std::size_t k = 0; k < kSystemCount; ++k) {
          auto balancer = make(kSystems[k]);
          TimedBalancer timed(*balancer, spans);
          balance::LoadBalancer& system =
              spans.enabled() && kSystems[k] == SystemKind::kAnu
                  ? static_cast<balance::LoadBalancer&>(timed)
                  : *balancer;
          const std::int64_t t0 = now_ns();
          const driver::ExperimentResult r =
              driver::run_experiment(config, w, system);
          const std::int64_t t1 = now_ns();
          spans.add("driver.run_experiment", t0, t1, 0,
                    "\"input\":\"" + inputs_[i].label + "\",\"system\":\"" +
                        driver::system_label(kSystems[k]) + "\"");
          run_ns += t1 - t0;
          ++runs;
          pair_s[i * kSystemCount + k].push_back(ns_to_s(t1 - t0));
          events += r.events_executed;
          tune_ns += timed.tune_ns();
          tunes += timed.tunes();
          if (cycles == 0) server_for_first_cycle += timed.server_for_calls();
          check(i, k, r, verdict);
        }
      }
      ++cycles;
    }

    // Each (input, system) run is timed at its best of N repetitions: the
    // host's other tenants only ever slow a repetition down, for stretches
    // of many seconds, and the fastest repetition is the least disturbed.
    std::vector<double> best_us;
    std::uint64_t cycle_requests = 0;
    for (std::size_t p = 0; p < pair_s.size(); ++p) {
      best_us.push_back(1e6 * *std::min_element(pair_s[p].begin(), pair_s[p].end()));
      cycle_requests += inputs_[p / kSystemCount].workload.request_count();
    }
    double cycle_us = 0.0;
    for (double us : best_us) cycle_us += us;
    EndToEnd e;
    e.throughput_per_s = 1e6 * static_cast<double>(cycle_requests) / cycle_us;
    e.op_p50_us = quantile(best_us, 0.5);
    e.op_tail_us = quantile(best_us, 0.9);
    outcomes(layers);
    if (spans.enabled()) {
      std::uint64_t cycle_events = 0, max_pending = 0, slab_high = 0,
                    spills = 0, in_flight = 0;
      for (const auto& [key, r] : first_) {
        cycle_events += r.events_executed;
        in_flight += r.requests_issued - r.requests_completed;
        max_pending = std::max(max_pending, r.queue.max_pending);
        slab_high = std::max(slab_high, r.queue.slab_high_water);
        spills += r.queue.rung_spills;
      }
      layers["workload.synth_ms"] = synth_ms_;
      layers["driver.run_ms"] = ns_to_ms(run_ns) / static_cast<double>(runs);
      layers["sim.events"] = static_cast<double>(cycle_events);
      layers["sim.events_per_request"] =
          static_cast<double>(cycle_events) / static_cast<double>(cycle_requests);
      layers["sim.events_per_s"] = static_cast<double>(events) / ns_to_s(run_ns);
      layers["sim.queue.max_pending"] = static_cast<double>(max_pending);
      layers["sim.queue.slab_high_water"] = static_cast<double>(slab_high);
      layers["sim.queue.rung_spills"] = static_cast<double>(spills);
      layers["sim.in_flight_at_horizon"] = static_cast<double>(in_flight);
      layers["core.tune_us"] =
          tunes == 0 ? 0.0 : ns_to_us(tune_ns) / static_cast<double>(tunes);
      layers["balance.server_for_calls"] =
          static_cast<double>(server_for_first_cycle);
    }
    return e;
  }

 private:
  std::unique_ptr<balance::LoadBalancer> make(SystemKind kind) const {
    driver::SystemConfig config;
    config.kind = kind;
    return driver::make_balancer(config, kServers);
  }

  void check(std::size_t input, std::size_t system,
             const driver::ExperimentResult& r, Verdict& verdict) {
    const workload::Workload& w = inputs_[input].workload;
    const std::string where =
        inputs_[input].label + " " + driver::system_label(kSystems[system]);
    verdict.attempted += w.request_count();
    // Every request must have been issued, and every issued request
    // completed or still queued at the horizon (the simulator drops none).
    verdict.check(r.requests_issued == w.request_count(),
                  where + ": not every request was issued");
    verdict.check(r.requests_completed <= r.requests_issued,
                  where + ": more completions than requests");
    std::uint64_t served = 0;
    for (std::uint64_t s : r.served) served += s;
    verdict.check(served == r.requests_completed,
                  where + ": per-server completions do not add up");
    verdict.check(r.aggregate.count() == r.requests_completed,
                  where + ": latency samples do not match completions");
    const auto key = std::make_pair(input, system);
    const auto it = first_.find(key);
    if (it == first_.end()) {
      first_.emplace(key, r);
    } else {
      verdict.check(fingerprint_of(it->second) == fingerprint_of(r),
                    where + ": replay of the same input gave a different "
                            "result");
    }
  }

  /// Outcome metrics of ANU over the distinct inputs (deterministic for a
  /// seed): mean latency over the prescient oracle's (geometric mean),
  /// per-server latency CV, and share of the workload moved.
  void outcomes(Layers& layers) const {
    double log_ratio = 0.0, cv = 0.0, moved = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const auto& anu = first_.at({i, 3});
      const auto& prescient = first_.at({i, 1});
      log_ratio += std::log(anu.aggregate.mean() / prescient.aggregate.mean());
      cv += metrics::performance_consistency(anu.per_server).latency_cv;
      moved += anu.percent_workload_moved;
      ++n;
    }
    layers["outcome.vs_ideal_ratio"] = std::exp(log_ratio / static_cast<double>(n));
    layers["outcome.latency_cv"] = cv / static_cast<double>(n);
    layers["outcome.moved_pct"] = moved / static_cast<double>(n);
  }

  Options opts_;
  std::vector<Input> inputs_;
  double synth_ms_ = 0.0;
  std::map<std::pair<std::size_t, std::size_t>, driver::ExperimentResult>
      first_;
};

static_assert(kSystems[1] == SystemKind::kDynPrescient &&
              kSystems[3] == SystemKind::kAnu);

}  // namespace

std::unique_ptr<Workload> make_paper_sim(const Options& opts) {
  return std::make_unique<PaperSim>(opts);
}

}  // namespace perfbench
