// Tests for the shared decision core (core/decision.h): one probe loop and
// one retune path, and the public libanu facade staying on them.
#include "core/decision.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anu/anu.h"
#include "core/anu_balancer.h"

namespace anu::core {
namespace {

using Reports = std::vector<std::optional<balance::ServerReport>>;

TEST(Decision, LocateReturnsTheFirstMappedProbe) {
  const RegionMap map(5);
  const HashFamily family;
  for (int i = 0; i < 100; ++i) {
    const std::string name = "fs/" + std::to_string(i);
    const Lookup hit = locate(map, family, name);
    ASSERT_GE(hit.probes, 1u);
    for (std::uint32_t r = 0; r + 1 < hit.probes; ++r) {
      EXPECT_FALSE(map.owner_at(family.unit_point(name, r))) << name;
    }
    EXPECT_EQ(map.owner_at(family.unit_point(name, hit.probes - 1)),
              hit.server);
  }
}

TEST(Decision, UpServerWithoutReportReadsAsIdle) {
  RegionMap silent(4);
  RegionMap idle(4);
  const std::vector<bool> up(4, true);
  Reports reports(4, balance::ServerReport{0.2, 50});
  reports[2].reset();
  const TunerDecision a = retune(silent, up, reports, TunerConfig{});
  reports[2] = balance::ServerReport{0.0, 0};
  const TunerDecision b = retune(idle, up, reports, TunerConfig{});
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_TRUE(silent == idle);
}

TEST(Decision, DownServerIsReclaimedEvenWithAReport) {
  RegionMap map(4);
  std::vector<bool> up(4, true);
  up[1] = false;
  const Reports reports(4, balance::ServerReport{0.2, 50});
  const TunerDecision decision = retune(map, up, reports, TunerConfig{});
  EXPECT_EQ(decision.weights[1], 0.0);
  EXPECT_EQ(map.share(ServerId(1)).raw(), 0u);
  map.check_invariants();
}

// libanu and AnuBalancer are two front ends of core::retune: fed the same
// reports, including rounds where an up server files none, they must hold
// the same shares bit for bit after every round.
TEST(Decision, LibanuAndAnuBalancerHoldIdenticalShares) {
  constexpr std::uint32_t kServers = 5;
  const double speeds[kServers] = {1.0, 3.0, 5.0, 7.0, 9.0};
  anu::Balancer facade(kServers);
  AnuBalancer core_balancer(AnuConfig{}, kServers);
  for (std::uint32_t round = 0; round < 40; ++round) {
    const auto shares = facade.shares();
    for (std::uint32_t s = 0; s < kServers; ++s) {
      if ((round + s) % 4 == 0) continue;  // this server files no report
      const double latency = shares[s] / speeds[s] * (1.0 + 0.1 * (round % 3));
      const auto completed = static_cast<std::uint64_t>((round * 7 + s) % 40);
      facade.record_latency(s, latency, completed);
      core_balancer.report(ServerId(s),
                           balance::ServerReport{latency, completed});
    }
    const anu::RetuneResult result = facade.retune();
    core_balancer.tune();
    std::vector<double> core_shares;
    for (const UnitPoint share : core_balancer.region_map().shares()) {
      core_shares.push_back(share.to_double());
    }
    ASSERT_EQ(facade.shares(), core_shares) << "round " << round;
    EXPECT_EQ(result.system_average, core_balancer.last_system_average());
    EXPECT_EQ(result.incompetent, core_balancer.last_incompetent());
  }
}

}  // namespace
}  // namespace anu::core
