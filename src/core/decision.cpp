#include "core/decision.h"

#include "common/assert.h"

namespace anu::core {

Lookup locate(const RegionMap& map, const HashFamily& family,
              std::string_view name) {
  for (std::uint32_t r = 0; r < kMaxProbeRounds; ++r) {
    if (const auto owner = map.owner_at(family.unit_point(name, r))) {
      return Lookup{*owner, r + 1};
    }
  }
  ANU_ENSURE(false && "ANU lookup exhausted the hash family");
  return {};
}

TunerDecision retune(
    RegionMap& map, const std::vector<bool>& up,
    const std::vector<std::optional<balance::ServerReport>>& reports,
    const TunerConfig& config, obs::TraceSink* trace, SimTime now) {
  const std::size_t k = map.server_count();
  ANU_REQUIRE(up.size() == k && reports.size() == k);
  std::vector<TunerInput> inputs(k);
  const auto shares = map.shares();
  for (std::size_t s = 0; s < k; ++s) {
    inputs[s].current_share = static_cast<double>(shares[s].raw());
    if (up[s]) {
      inputs[s].report = reports[s].value_or(balance::ServerReport{0.0, 0});
    }
  }
  TunerDecision decision = run_delegate_round(inputs, config, trace, now);
  map.rebalance(RegionMap::normalize_shares(decision.weights));
  return decision;
}

}  // namespace anu::core
