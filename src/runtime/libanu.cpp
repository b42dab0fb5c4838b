// libanu implementation: the public Balancer facade over core/decision —
// the same locate and retune the simulator and the protocol drive, so an
// embedding gets the simulated behaviour.
#include "anu/anu.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/assert.h"
#include "core/decision.h"
#include "hash/hash_family.h"

namespace anu {

static_assert(BalancerConfig{}.hash_seed == HashFamily::kDefaultSeed,
              "libanu and the internal replicas must share one hash seed");

struct Balancer::Impl {
  core::TunerConfig tuner;
  HashFamily family;
  core::RegionMap map;
  std::uint64_t version = 0;
  std::vector<bool> up;
  std::vector<std::optional<balance::ServerReport>> reports;

  Impl(std::size_t server_count, const BalancerConfig& cfg)
      : family(cfg.hash_seed),
        map(server_count),
        up(server_count, true),
        reports(server_count) {
    tuner.alpha = cfg.alpha;
    tuner.growth_cap = cfg.growth_cap;
    tuner.shrink_cap = cfg.shrink_cap;
    tuner.idle_growth = cfg.idle_growth;
    tuner.min_share_fraction = cfg.min_share_fraction;
    tuner.dead_band = cfg.dead_band;
  }
};

Balancer::Balancer(std::size_t server_count, const BalancerConfig& config)
    : impl_(std::make_unique<Impl>(server_count, config)) {
  ANU_REQUIRE(server_count > 0);
}

Balancer::~Balancer() = default;
Balancer::Balancer(Balancer&&) noexcept = default;
Balancer& Balancer::operator=(Balancer&&) noexcept = default;

std::size_t Balancer::server_count() const { return impl_->up.size(); }

void Balancer::set_server_up(std::uint32_t server, bool up) {
  ANU_REQUIRE(server < impl_->up.size());
  impl_->up[server] = up;
  if (!up) impl_->reports[server].reset();
}

bool Balancer::server_up(std::uint32_t server) const {
  ANU_REQUIRE(server < impl_->up.size());
  return impl_->up[server];
}

void Balancer::record_latency(std::uint32_t server, double mean_latency,
                              std::uint64_t completed) {
  ANU_REQUIRE(server < impl_->reports.size());
  ANU_REQUIRE(mean_latency >= 0.0);
  impl_->reports[server] = balance::ServerReport{
      mean_latency, static_cast<std::size_t>(completed)};
}

RetuneResult Balancer::retune() {
  Impl& impl = *impl_;
  const auto before = impl.map.shares();
  auto decision = core::retune(impl.map, impl.up, impl.reports, impl.tuner);
  ++impl.version;
  std::fill(impl.reports.begin(), impl.reports.end(), std::nullopt);

  RetuneResult result;
  result.version = impl.version;
  result.system_average = decision.system_average;
  result.incompetent = std::move(decision.incompetent);
  result.changed = impl.map.shares() != before;
  return result;
}

std::uint32_t Balancer::route(std::string_view key) const {
  return core::locate(impl_->map, impl_->family, key).server.value();
}

std::uint64_t Balancer::version() const { return impl_->version; }

std::vector<double> Balancer::shares() const {
  std::vector<double> out;
  out.reserve(impl_->up.size());
  for (const UnitPoint share : impl_->map.shares()) {
    out.push_back(share.to_double());
  }
  return out;
}

}  // namespace anu
