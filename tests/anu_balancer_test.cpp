// Tests for the assembled ANU balancer: addressing, tuning, elasticity.
#include "core/anu_balancer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace anu::core {
namespace {

std::vector<workload::FileSet> make_file_sets(std::size_t n) {
  std::vector<workload::FileSet> fs;
  for (std::uint32_t i = 0; i < n; ++i) {
    fs.push_back({FileSetId(i), "fs/" + std::to_string(i), 1.0});
  }
  return fs;
}

TEST(AnuBalancer, PlacementIsDeterministic) {
  AnuBalancer a(AnuConfig{}, 5), b(AnuConfig{}, 5);
  const auto fs = make_file_sets(50);
  a.register_file_sets(fs);
  b.register_file_sets(fs);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.server_for(FileSetId(i)), b.server_for(FileSetId(i)));
  }
}

TEST(AnuBalancer, LocateAgreesWithPlacement) {
  AnuBalancer bal(AnuConfig{}, 5);
  const auto fs = make_file_sets(50);
  bal.register_file_sets(fs);
  for (const auto& f : fs) {
    EXPECT_EQ(bal.locate(f.name).server, bal.server_for(f.id));
  }
}

TEST(AnuBalancer, MeanProbesNearTwo) {
  // Paper §4: "On average, the system requires two probes to assign a file
  // set"; miss chance 2^-r after r rounds.
  AnuBalancer bal(AnuConfig{}, 5);
  bal.register_file_sets(make_file_sets(1));
  double probes = 0.0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    probes += bal.locate("probe/test/" + std::to_string(i)).probes;
  }
  EXPECT_NEAR(probes / kN, 2.0, 0.05);
}

TEST(AnuBalancer, InitialSharesEqual) {
  AnuBalancer bal(AnuConfig{}, 5);
  for (std::uint32_t s = 0; s < 5; ++s) {
    EXPECT_NEAR(bal.region_map().share(ServerId(s)).to_double(), 0.1, 1e-9);
  }
}

TEST(AnuBalancer, TuneMovesLoadTowardFastServers) {
  AnuBalancer bal(AnuConfig{}, 5);
  bal.register_file_sets(make_file_sets(50));
  for (int round = 0; round < 30; ++round) {
    for (std::uint32_t s = 0; s < 5; ++s) {
      // Server speed grows with id: latency inversely proportional.
      const double latency = 10.0 / (1.0 + 2.0 * s);
      bal.report(ServerId(s), {latency, 100});
    }
    bal.tune();
  }
  const auto& map = bal.region_map();
  EXPECT_LT(map.share(ServerId(0)).to_double(),
            map.share(ServerId(4)).to_double());
  EXPECT_LT(map.share(ServerId(1)).to_double(),
            map.share(ServerId(3)).to_double());
}

TEST(AnuBalancer, TuneReturnsActualMoves) {
  AnuBalancer bal(AnuConfig{}, 5);
  const auto fs = make_file_sets(50);
  bal.register_file_sets(fs);
  std::vector<ServerId> before(50);
  for (std::uint32_t i = 0; i < 50; ++i) before[i] = bal.server_for(FileSetId(i));
  for (std::uint32_t s = 0; s < 5; ++s) {
    bal.report(ServerId(s), {s == 0 ? 50.0 : 1.0, 100});
  }
  const auto result = bal.tune();
  std::size_t observed_changes = 0;
  for (std::uint32_t i = 0; i < 50; ++i) {
    if (bal.server_for(FileSetId(i)) != before[i]) ++observed_changes;
  }
  EXPECT_EQ(result.moved_count(), observed_changes);
  for (const auto& move : result.moves) {
    EXPECT_EQ(before[move.file_set.value()], move.from);
    EXPECT_EQ(bal.server_for(move.file_set), move.to);
  }
}

TEST(AnuBalancer, FailedServerReceivesNothing) {
  AnuBalancer bal(AnuConfig{}, 5);
  bal.register_file_sets(make_file_sets(50));
  bal.on_server_failed(ServerId(2));
  EXPECT_FALSE(bal.server_up(ServerId(2)));
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_NE(bal.server_for(FileSetId(i)), ServerId(2));
  }
  EXPECT_EQ(bal.region_map().share(ServerId(2)).raw(), 0u);
}

TEST(AnuBalancer, FailureMovesItsOwnFileSets) {
  AnuBalancer bal(AnuConfig{}, 5);
  const auto fs = make_file_sets(50);
  bal.register_file_sets(fs);
  std::set<std::uint32_t> owned;
  for (std::uint32_t i = 0; i < 50; ++i) {
    if (bal.server_for(FileSetId(i)) == ServerId(1)) owned.insert(i);
  }
  const auto result = bal.on_server_failed(ServerId(1));
  std::set<std::uint32_t> moved;
  for (const auto& move : result.moves) moved.insert(move.file_set.value());
  // Every file set the failed server held must have moved.
  for (std::uint32_t i : owned) EXPECT_TRUE(moved.count(i)) << "fs " << i;
  // Collateral movement (captured earlier probes) must stay small.
  EXPECT_LE(moved.size(), owned.size() + 5);
}

TEST(AnuBalancer, HalfOccupancyHeldThroughFailures) {
  AnuBalancer bal(AnuConfig{}, 5);
  bal.register_file_sets(make_file_sets(50));
  bal.on_server_failed(ServerId(0));
  bal.on_server_failed(ServerId(4));
  // check_invariants aborts if the half-occupancy or partial invariants
  // broke; reaching here with sane shares is the assertion.
  double total = 0.0;
  for (std::uint32_t s = 0; s < 5; ++s) {
    total += bal.region_map().share(ServerId(s)).to_double();
  }
  EXPECT_NEAR(total, 0.5, 1e-9);
}

TEST(AnuBalancer, RecoveryRestoresService) {
  AnuBalancer bal(AnuConfig{}, 5);
  bal.register_file_sets(make_file_sets(50));
  bal.on_server_failed(ServerId(3));
  const auto moves = bal.on_server_recovered(ServerId(3));
  EXPECT_TRUE(bal.server_up(ServerId(3)));
  // Recovered server re-enters with roughly one partition of the interval.
  const double share = bal.region_map().share(ServerId(3)).to_double();
  EXPECT_GT(share, 0.0);
  EXPECT_LE(share, bal.region_map().partition_size().to_double() + 1e-9);
  (void)moves;
}

TEST(AnuBalancer, RecoveredServerCanGrowBack) {
  AnuBalancer bal(AnuConfig{}, 5);
  bal.register_file_sets(make_file_sets(50));
  bal.on_server_failed(ServerId(4));
  bal.on_server_recovered(ServerId(4));
  for (int round = 0; round < 40; ++round) {
    for (std::uint32_t s = 0; s < 5; ++s) {
      // Server 4 is the fastest: low latency whenever it serves anything.
      const double latency = s == 4 ? 0.2 : 2.0;
      bal.report(ServerId(s), {latency, 100});
    }
    bal.tune();
  }
  const auto& map = bal.region_map();
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(map.share(ServerId(4)).to_double(),
              map.share(ServerId(s)).to_double());
  }
}

TEST(AnuBalancer, AddServerTriggersRepartition) {
  AnuBalancer bal(AnuConfig{}, 4);
  bal.register_file_sets(make_file_sets(30));
  EXPECT_EQ(bal.region_map().partition_count(), 8u);
  const auto moves = bal.on_server_added(ServerId(4));
  EXPECT_EQ(bal.region_map().partition_count(), 16u);
  EXPECT_TRUE(bal.server_up(ServerId(4)));
  // The newcomer only takes a sliver; most placements survive.
  EXPECT_LT(moves.moved_count(), 10u);
}

TEST(AnuBalancer, AddedServerIsAddressable) {
  AnuBalancer bal(AnuConfig{}, 4);
  bal.register_file_sets(make_file_sets(30));
  bal.on_server_added(ServerId(4));
  // Give it strongly favorable reports; eventually it serves file sets.
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t s = 0; s < 5; ++s) {
      bal.report(ServerId(s), {s == 4 ? 0.1 : 5.0, 100});
    }
    bal.tune();
  }
  std::size_t on_new = 0;
  for (std::uint32_t i = 0; i < 30; ++i) {
    if (bal.server_for(FileSetId(i)) == ServerId(4)) ++on_new;
  }
  EXPECT_GT(on_new, 0u);
}

TEST(AnuBalancer, SharedStateIsSmallAndServerScaled) {
  AnuBalancer bal5(AnuConfig{}, 5);
  EXPECT_EQ(bal5.shared_state_bytes(), 16u * 12 + 8);
  AnuBalancer bal40(AnuConfig{}, 40);
  EXPECT_EQ(bal40.shared_state_bytes(), 128u * 12 + 8);
}

TEST(AnuBalancer, ReportToDownServerForbidden) {
  AnuBalancer bal(AnuConfig{}, 3);
  bal.register_file_sets(make_file_sets(10));
  bal.on_server_failed(ServerId(1));
  EXPECT_DEATH(bal.report(ServerId(1), {1.0, 1}), "precondition");
}

TEST(AnuBalancer, TuningRoundsCounted) {
  AnuBalancer bal(AnuConfig{}, 3);
  bal.register_file_sets(make_file_sets(10));
  for (int i = 0; i < 4; ++i) {
    for (std::uint32_t s = 0; s < 3; ++s) bal.report(ServerId(s), {1.0, 1});
    bal.tune();
  }
  EXPECT_EQ(bal.tuning_rounds(), 4u);
}

// Hashing-variance property (paper §4): even with identical servers and
// homogeneous file sets, mapped-region scaling yields better balance than
// simple randomization's static split.
TEST(AnuBalancer, CorrectsHashingVariance) {
  AnuBalancer bal(AnuConfig{}, 4);
  const std::size_t kSets = 64;
  bal.register_file_sets(make_file_sets(kSets));
  auto spread = [&] {
    std::vector<std::size_t> counts(4, 0);
    for (std::uint32_t i = 0; i < kSets; ++i) {
      ++counts[bal.server_for(FileSetId(i)).value()];
    }
    std::size_t lo = kSets, hi = 0;
    for (auto c : counts) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return hi - lo;
  };
  const std::size_t before = spread();
  for (int round = 0; round < 60; ++round) {
    std::vector<std::size_t> counts(4, 0);
    for (std::uint32_t i = 0; i < kSets; ++i) {
      ++counts[bal.server_for(FileSetId(i)).value()];
    }
    for (std::uint32_t s = 0; s < 4; ++s) {
      // Equal-speed servers: latency proportional to assigned count.
      bal.report(ServerId(s),
                 {static_cast<double>(counts[s]) + 0.01, counts[s] + 1});
    }
    bal.tune();
  }
  EXPECT_LE(spread(), before);
  const std::size_t after = spread();
  EXPECT_LE(after, kSets / 4);  // max-min gap at most the average bucket
}


// --- multiple-choice placement (SIEVE heuristic, paper section 4) --------

TEST(AnuBalancerTwoChoice, CandidatesAreDistinctServers) {
  AnuBalancer bal(AnuConfig{}, 5);
  bal.register_file_sets(make_file_sets(1));
  for (int i = 0; i < 200; ++i) {
    const auto pair = bal.candidate_set("cand/" + std::to_string(i), 2);
    ASSERT_FALSE(pair.empty());
    ASSERT_LE(pair.size(), 2u);
    ASSERT_TRUE(pair[0].server.valid());
    if (pair.size() == 2) {
      EXPECT_TRUE(pair[1].server.valid());
      EXPECT_NE(pair[0].server, pair[1].server);
      EXPECT_GT(pair[1].probes, pair[0].probes);
    }
  }
}

TEST(AnuBalancerTwoChoice, SecondChoiceInvalidWithOneServer) {
  AnuBalancer bal(AnuConfig{}, 1);
  bal.register_file_sets(make_file_sets(1));
  const auto pair = bal.candidate_set("solo", 2);
  ASSERT_EQ(pair.size(), 1u);
  EXPECT_TRUE(pair[0].server.valid());
}

TEST(AnuBalancerTwoChoice, PlacementUsesOneOfTheCandidates) {
  AnuConfig config;
  config.placement_choices = 2;
  AnuBalancer bal(config, 5);
  const auto fs = make_file_sets(50);
  bal.register_file_sets(fs);
  for (const auto& f : fs) {
    const auto pair = bal.candidate_set(f.name, 2);
    const ServerId placed = bal.server_for(f.id);
    EXPECT_TRUE(std::any_of(pair.begin(), pair.end(), [&](const auto& c) {
      return c.server == placed;
    }));
  }
}

TEST(AnuBalancerTwoChoice, ImprovesBalanceOverSingleChoice) {
  // The heuristic exists to tighten the load bound toward ceil(m/n + 1);
  // with equal shares and homogeneous file sets the max-min spread must
  // not get worse, and typically shrinks substantially.
  auto spread = [](std::uint32_t choices) {
    AnuConfig config;
    config.placement_choices = choices;
    AnuBalancer bal(config, 8);
    const std::size_t kSets = 256;
    std::vector<workload::FileSet> fs;
    for (std::uint32_t i = 0; i < kSets; ++i) {
      fs.push_back({FileSetId(i), "mc/" + std::to_string(i), 1.0});
    }
    bal.register_file_sets(fs);
    std::vector<std::size_t> counts(8, 0);
    for (std::uint32_t i = 0; i < kSets; ++i) {
      ++counts[bal.server_for(FileSetId(i)).value()];
    }
    std::size_t lo = kSets, hi = 0;
    for (auto c : counts) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return hi - lo;
  };
  EXPECT_LT(spread(2), spread(1));
}

TEST(AnuBalancerTwoChoice, DeterministicPlacement) {
  AnuConfig config;
  config.placement_choices = 2;
  AnuBalancer a(config, 5), b(config, 5);
  const auto fs = make_file_sets(64);
  a.register_file_sets(fs);
  b.register_file_sets(fs);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.server_for(FileSetId(i)), b.server_for(FileSetId(i)));
  }
}

TEST(AnuBalancerTwoChoice, SharedStateAddsChoiceBits) {
  AnuConfig one;
  AnuConfig two;
  two.placement_choices = 2;
  AnuBalancer a(one, 5), b(two, 5);
  const auto fs = make_file_sets(50);
  a.register_file_sets(fs);
  b.register_file_sets(fs);
  EXPECT_EQ(b.shared_state_bytes(), a.shared_state_bytes() + (50 + 7) / 8);
}

TEST(AnuBalancerTwoChoice, SurvivesMembershipChurn) {
  AnuConfig config;
  config.placement_choices = 2;
  AnuBalancer bal(config, 5);
  bal.register_file_sets(make_file_sets(50));
  bal.on_server_failed(ServerId(2));
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_NE(bal.server_for(FileSetId(i)), ServerId(2));
  }
  bal.on_server_recovered(ServerId(2));
  for (std::uint32_t s = 0; s < 5; ++s) bal.report(ServerId(s), {1.0, 10});
  bal.tune();  // invariants re-checked inside
}


TEST(AnuBalancerDChoice, CandidateSetDistinctAndOrdered) {
  AnuBalancer bal(AnuConfig{}, 8);
  bal.register_file_sets(make_file_sets(1));
  for (int i = 0; i < 100; ++i) {
    const auto set = bal.candidate_set("dc/" + std::to_string(i), 4);
    ASSERT_GE(set.size(), 1u);
    ASSERT_LE(set.size(), 4u);
    for (std::size_t a = 0; a < set.size(); ++a) {
      for (std::size_t b = a + 1; b < set.size(); ++b) {
        EXPECT_NE(set[a].server, set[b].server);
        EXPECT_LT(set[a].probes, set[b].probes);
      }
    }
  }
}

TEST(AnuBalancerDChoice, MoreChoicesNeverWorsenSpread) {
  auto spread = [](std::uint32_t choices) {
    AnuConfig config;
    config.placement_choices = choices;
    AnuBalancer bal(config, 8);
    const std::size_t kSets = 256;
    std::vector<workload::FileSet> fs;
    for (std::uint32_t i = 0; i < kSets; ++i) {
      fs.push_back({FileSetId(i), "dc/" + std::to_string(i), 1.0});
    }
    bal.register_file_sets(fs);
    std::vector<std::size_t> counts(8, 0);
    for (std::uint32_t i = 0; i < kSets; ++i) {
      ++counts[bal.server_for(FileSetId(i)).value()];
    }
    std::size_t lo = kSets, hi = 0;
    for (auto c : counts) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return hi - lo;
  };
  EXPECT_LE(spread(4), spread(2));
  EXPECT_LT(spread(4), spread(1));
}

TEST(AnuBalancerDChoice, SharedStateBitsGrowWithLgD) {
  const auto fs = make_file_sets(64);
  auto bytes_for = [&](std::uint32_t choices) {
    AnuConfig config;
    config.placement_choices = choices;
    AnuBalancer bal(config, 5);
    bal.register_file_sets(fs);
    return bal.shared_state_bytes();
  };
  const auto base = bytes_for(1);
  EXPECT_EQ(bytes_for(2), base + 64 / 8);      // 1 bit per set
  EXPECT_EQ(bytes_for(4), base + 64 * 2 / 8);  // 2 bits per set
  EXPECT_EQ(bytes_for(8), base + 64 * 3 / 8);  // 3 bits per set
}

TEST(AnuBalancerDChoice, RejectsOutOfRange) {
  AnuConfig config;
  config.placement_choices = 9;
  EXPECT_DEATH(AnuBalancer(config, 5), "precondition");
}

}  // namespace
}  // namespace anu::core
