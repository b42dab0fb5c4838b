// AnuBalancer — the paper's load-management system.
//
// Ties together the three ANU mechanisms (§4):
//   * addressing (core::locate): file-set names are hashed into the unit
//     interval with the agreed hash family, re-hashing (next family member)
//     until the point lands in some server's mapped region — expected 2
//     probes under the half-occupancy invariant, probability 2^-r of
//     needing more than r;
//   * the partition table (RegionMap) holding every server's mapped region
//     — the only replicated state;
//   * the stateless delegate (core::retune) that rescales mapped regions
//     from per-interval latency reports.
//
// Placement is a pure function of (hash family, region map): any node can
// locate any file set with no lookup table, which is the addressing
// advantage over virtual processors (§5.4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "balance/balancer.h"
#include "core/decision.h"
#include "core/region_map.h"
#include "core/tuner.h"
#include "hash/hash_family.h"

namespace anu::core {

struct AnuConfig {
  TunerConfig tuner;
  std::uint64_t hash_seed = 0x616e755f68617368ULL;
  /// Re-hash budget of locate(): always kMaxProbeRounds, not settable.
  static constexpr std::uint32_t max_probe_rounds = kMaxProbeRounds;
  /// Placement choices per file set (1..8). 1 = first mapped probe wins
  /// (plain re-hash addressing). d >= 2 generalizes the SIEVE
  /// multiple-choice heuristic §4 leans on for the ceil(m/n + 1) load
  /// bound: the first d probes hitting *distinct* servers are candidates
  /// and the file set goes to the candidate with the lightest
  /// weight-per-share; the winning choice index is ceil(lg d) replicated
  /// bits per file set (counted in shared_state_bytes).
  std::uint32_t placement_choices = 1;
};

class AnuBalancer final : public balance::LoadBalancer {
 public:
  AnuBalancer(const AnuConfig& config, std::size_t server_count);

  [[nodiscard]] std::string name() const override {
    return "anu-randomization";
  }

  void register_file_sets(
      const std::vector<workload::FileSet>& file_sets) override;
  [[nodiscard]] ServerId server_for(FileSetId id) const override;
  void report(ServerId server, const balance::ServerReport& report) override;
  balance::RebalanceResult tune() override;
  balance::RebalanceResult on_server_failed(ServerId id) override;
  balance::RebalanceResult on_server_recovered(ServerId id) override;
  balance::RebalanceResult on_server_added(ServerId id) override;
  [[nodiscard]] std::size_t shared_state_bytes() const override;

  /// Stateless lookup by name: core::locate on this balancer's map.
  using Lookup = core::Lookup;
  [[nodiscard]] Lookup locate(std::string_view name) const {
    return core::locate(regions_, family_, name);
  }

  /// First `count` probes landing on distinct servers (may return fewer
  /// when fewer distinct servers are mapped): the placement candidates of
  /// the d-choice heuristic.
  [[nodiscard]] std::vector<Lookup> candidate_set(std::string_view name,
                                                  std::uint32_t count) const;

  /// Read access for tests, diagnostics and the figure harnesses.
  [[nodiscard]] const RegionMap& region_map() const { return regions_; }
  [[nodiscard]] bool server_up(ServerId id) const;
  [[nodiscard]] double last_system_average() const { return last_average_; }
  [[nodiscard]] const std::vector<std::uint32_t>& last_incompetent() const {
    return last_incompetent_;
  }
  [[nodiscard]] std::uint64_t tuning_rounds() const { return rounds_; }

 private:
  balance::RebalanceResult apply_targets(
      const std::vector<UnitPoint::raw_type>& targets);
  /// Re-resolves every file set on the current map; returns what moved.
  balance::RebalanceResult replace_placement();
  [[nodiscard]] std::vector<ServerId> resolve_all() const;
  [[nodiscard]] std::vector<double> up_share_weights() const;

  AnuConfig config_;
  HashFamily family_;
  RegionMap regions_;
  std::vector<bool> up_;
  std::vector<std::string> names_;           // per file set
  std::vector<double> weights_;              // per file set
  std::vector<ServerId> placement_;          // per file set
  std::vector<std::optional<balance::ServerReport>> pending_;  // per server
  double last_average_ = 0.0;
  std::vector<std::uint32_t> last_incompetent_;
  std::uint64_t rounds_ = 0;
};

}  // namespace anu::core
