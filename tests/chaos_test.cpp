// Chaos suite: randomized adversarial fault scenarios through the full
// protocol experiment, asserting the post-fault convergence invariants and
// bit-reproducibility (docs/chaos.md). Labeled `chaos` in ctest.
#include "driver/chaos.h"

#include <gtest/gtest.h>

#include "workload/synthetic.h"

namespace anu::driver {
namespace {

/// Small-and-fast chaos shape shared by the suite: ~2 minutes of faults,
/// then enough tuning rounds to judge convergence, in well under a second.
ChaosConfig soak_config(std::uint64_t seed, ChaosProfile profile) {
  ChaosConfig config;
  config.seed = seed;
  config.profile = profile;
  config.horizon = 400.0;
  config.requests = 1200;
  config.file_sets = 12;
  config.protocol.tuning_interval = 30.0;
  return config;
}

std::string violations_text(const ChaosReport& report) {
  std::string out;
  for (const std::string& v : report.violations) out += v + "; ";
  return out;
}

// The ISSUE acceptance scenario, scripted explicitly: 10% message loss for
// the whole fault phase, one 30-second partition splitting the cluster,
// and one server gray-degraded to a quarter of its speed. After faults
// cease the protocol must converge: identical map version on all live
// nodes, full coverage, every file set owned by a live server.
TEST(Chaos, AcceptanceScenarioConverges) {
  workload::SyntheticConfig synthetic;
  synthetic.seed = 5;
  synthetic.file_set_count = 12;
  synthetic.request_count = 1500;
  synthetic.duration = 550.0;
  synthetic.cluster_capacity = 25.0;
  synthetic.target_utilization = 0.5;
  const auto workload = workload::make_synthetic_workload(synthetic);

  auto run_once = [&workload] {
    ProtocolExperimentConfig config;
    config.cluster = cluster::paper_cluster();
    config.horizon = 600.0;
    config.protocol.tuning_interval = 30.0;

    faults::FaultPlanConfig fault_config;
    fault_config.loss = 0.10;
    fault_config.end = 360.0;  // faults cease at 60% of the horizon
    faults::PartitionWindow window;
    window.start = 100.0;
    window.end = 130.0;
    window.group_a = {0, 1};
    window.group_b = {2, 3, 4};
    fault_config.partitions.push_back(window);
    faults::FaultPlan plan(fault_config);
    config.faults = &plan;

    cluster::FailureSchedule failures;
    cluster::MembershipEvent degrade{
        150.0, cluster::MembershipAction::kDegrade, ServerId(4), 0.0};
    degrade.factor = 0.25;
    failures.add(degrade);
    failures.add(
        {300.0, cluster::MembershipAction::kRestore, ServerId(4), 0.0});
    config.failures = failures;

    bool agreed = false;
    std::uint64_t version = 0;
    std::size_t file_sets_on_live_servers = 0;
    config.on_finish = [&](const proto::ProtocolCluster& protocol,
                           const proto::Network& network) {
      agreed = protocol.replicas_agree();
      version = protocol.version_of(0);
      for (const auto& fs : workload.file_sets()) {
        const ServerId owner = protocol.route_from(0, fs.name);
        if (network.node_up(owner.value())) ++file_sets_on_live_servers;
      }
    };
    const auto result = run_protocol_experiment(config, workload);
    EXPECT_TRUE(agreed);
    EXPECT_GT(version, 0u);
    EXPECT_EQ(file_sets_on_live_servers, workload.file_set_count());
    // The faults actually bit: losses were injected and repaired.
    EXPECT_GT(plan.injected_losses(), 0u);
    EXPECT_GT(plan.partition_drops(), 0u);
    EXPECT_GT(result.control_plane.retransmits, 0u);
    EXPECT_EQ(result.control_plane.drops_injected,
              plan.injected_losses() + plan.partition_drops());
    return result;
  };

  // Bit-reproducible: the same scenario twice gives identical results.
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.aggregate.mean(), b.aggregate.mean());
  EXPECT_EQ(a.control_plane.messages_sent, b.control_plane.messages_sent);
  EXPECT_EQ(a.control_plane.retransmits, b.control_plane.retransmits);
  EXPECT_EQ(a.control_plane.drops_injected, b.control_plane.drops_injected);
}

// 20 random scenarios, cycling all five profiles: every one must converge
// and reconcile its counters.
class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, ConvergesAndReconciles) {
  const std::uint64_t seed = GetParam();
  const auto profile = static_cast<ChaosProfile>(seed % 5);
  const auto report = run_chaos(soak_config(seed, profile));
  EXPECT_TRUE(report.passed())
      << "seed " << seed << " profile " << chaos_profile_name(profile)
      << ": " << violations_text(report);
  EXPECT_GT(report.result.tuning_rounds, 5u);
  EXPECT_GT(report.result.requests_completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 21));

// Mixed-profile scenarios whose script degrades a server while it is down
// (the degrade and fail rounds overlap). The degrade is ignored — the
// server recovers at nominal speed — and the run converges.
TEST(Chaos, DegradeOfADownServerIsIgnored) {
  for (const std::uint64_t seed : {15u, 34u}) {
    ChaosConfig config;
    config.seed = seed;
    config.profile = ChaosProfile::kMixed;
    const auto report = run_chaos(config);
    EXPECT_TRUE(report.passed())
        << "seed " << seed << ": " << violations_text(report);
    EXPECT_EQ(report.result.requests_completed, config.requests);
  }
}

TEST(Chaos, SameSeedIsByteIdentical) {
  const auto config = soak_config(9, ChaosProfile::kMixed);
  const auto a = run_chaos(config);
  const auto b = run_chaos(config);
  EXPECT_TRUE(a.passed()) << violations_text(a);
  // Exact equality, not tolerance: the whole run is a pure function of the
  // config, fault stream included.
  EXPECT_EQ(a.result.requests_completed, b.result.requests_completed);
  EXPECT_EQ(a.result.aggregate.mean(), b.result.aggregate.mean());
  EXPECT_EQ(a.result.aggregate.stddev(), b.result.aggregate.stddev());
  EXPECT_EQ(a.result.control_plane.messages_sent,
            b.result.control_plane.messages_sent);
  EXPECT_EQ(a.result.control_plane.retransmits,
            b.result.control_plane.retransmits);
  EXPECT_EQ(a.result.control_plane.acks_received,
            b.result.control_plane.acks_received);
  EXPECT_EQ(a.injected_losses, b.injected_losses);
  EXPECT_EQ(a.partition_drops, b.partition_drops);
  EXPECT_EQ(a.duplications, b.duplications);
  EXPECT_EQ(a.faults.loss, b.faults.loss);
}

TEST(Chaos, DifferentSeedsGiveDifferentScenarios) {
  const auto a = run_chaos(soak_config(1, ChaosProfile::kHeavy));
  const auto b = run_chaos(soak_config(2, ChaosProfile::kHeavy));
  EXPECT_NE(a.faults.loss, b.faults.loss);
}

// Attaching a fault plan that injects nothing must not shift the workload,
// network-jitter, or retransmit streams: the fault RNG is consulted only
// when a fault can actually fire.
TEST(Chaos, InertFaultPlanDoesNotPerturbTheRun) {
  workload::SyntheticConfig synthetic;
  synthetic.seed = 11;
  synthetic.file_set_count = 10;
  synthetic.request_count = 800;
  synthetic.duration = 350.0;
  const auto workload = workload::make_synthetic_workload(synthetic);

  ProtocolExperimentConfig config;
  config.cluster = cluster::paper_cluster();
  config.horizon = 400.0;
  config.protocol.tuning_interval = 30.0;
  const auto clean = run_protocol_experiment(config, workload);

  faults::FaultPlan inert{faults::FaultPlanConfig{}};
  config.faults = &inert;
  const auto with_plan = run_protocol_experiment(config, workload);

  EXPECT_EQ(clean.requests_completed, with_plan.requests_completed);
  EXPECT_EQ(clean.aggregate.mean(), with_plan.aggregate.mean());
  EXPECT_EQ(clean.control_plane.messages_sent,
            with_plan.control_plane.messages_sent);
  EXPECT_EQ(clean.control_plane.retransmits,
            with_plan.control_plane.retransmits);
  EXPECT_EQ(with_plan.control_plane.drops_injected, 0u);
}

TEST(ChaosProfileNames, RoundTrip) {
  for (const auto profile :
       {ChaosProfile::kLight, ChaosProfile::kHeavy, ChaosProfile::kPartition,
        ChaosProfile::kDegrade, ChaosProfile::kMixed}) {
    const auto parsed = parse_chaos_profile(chaos_profile_name(profile));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, profile);
  }
  EXPECT_FALSE(parse_chaos_profile("tuesday").has_value());
}

}  // namespace
}  // namespace anu::driver
