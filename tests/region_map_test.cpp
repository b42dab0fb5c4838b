// Tests for the ANU partition table: invariants, layout, re-partitioning.
#include "core/region_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "region_map_reference.h"

namespace anu::core {
namespace {

UnitPoint::raw_type total_share(const RegionMap& map) {
  UnitPoint::raw_type sum = 0;
  for (std::uint32_t s = 0; s < map.server_count(); ++s) {
    sum += map.share(ServerId(s)).raw();
  }
  return sum;
}

TEST(RegionMapStatics, RequiredPartitions) {
  EXPECT_EQ(RegionMap::required_partitions(1), 2u);
  EXPECT_EQ(RegionMap::required_partitions(2), 4u);
  EXPECT_EQ(RegionMap::required_partitions(3), 8u);
  EXPECT_EQ(RegionMap::required_partitions(4), 8u);
  EXPECT_EQ(RegionMap::required_partitions(5), 16u);  // paper's 5-server case
  EXPECT_EQ(RegionMap::required_partitions(8), 16u);
  EXPECT_EQ(RegionMap::required_partitions(9), 32u);
}

TEST(RegionMap, InitialEqualShares) {
  const RegionMap map(5);
  EXPECT_EQ(map.partition_count(), 16u);
  for (std::uint32_t s = 0; s < 5; ++s) {
    EXPECT_NEAR(map.share(ServerId(s)).to_double(), 0.1, 1e-9);
  }
  EXPECT_EQ(total_share(map), RegionMap::kHalfRaw);
}

TEST(RegionMap, OwnerAtMatchesSegments) {
  const RegionMap map(5);
  for (std::uint32_t s = 0; s < 5; ++s) {
    for (const UnitSegment& seg : map.segments_of(ServerId(s))) {
      EXPECT_EQ(map.owner_at(seg.begin), ServerId(s));
      EXPECT_EQ(map.owner_at(UnitPoint::from_raw(seg.end.raw() - 1)),
                ServerId(s));
      // The point just past a segment end belongs to someone else or nobody.
      if (seg.end < UnitPoint::one()) {
        const auto after = map.owner_at(seg.end);
        EXPECT_TRUE(!after.has_value() || *after != ServerId(s));
      }
    }
  }
}

TEST(RegionMap, SegmentsAreDisjointAcrossServers) {
  const RegionMap map(7);
  std::vector<UnitSegment> all;
  for (std::uint32_t s = 0; s < 7; ++s) {
    const auto segs = map.segments_of(ServerId(s));
    all.insert(all.end(), segs.begin(), segs.end());
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_FALSE(all[i].overlaps(all[j]));
    }
  }
}

TEST(RegionMap, NormalizeSharesSumsExactly) {
  const auto shares = RegionMap::normalize_shares({1.0, 3.0, 5.0, 7.0, 9.0});
  const auto sum = std::accumulate(shares.begin(), shares.end(),
                                   UnitPoint::raw_type{0});
  EXPECT_EQ(sum, RegionMap::kHalfRaw);
  // Proportionality within rounding.
  EXPECT_NEAR(static_cast<double>(shares[4]) / static_cast<double>(shares[0]),
              9.0, 1e-6);
}

TEST(RegionMap, NormalizeSharesZeroWeightGetsZero) {
  const auto shares = RegionMap::normalize_shares({0.0, 1.0, 1.0});
  EXPECT_EQ(shares[0], 0u);
  EXPECT_EQ(shares[1] + shares[2], RegionMap::kHalfRaw);
}

TEST(RegionMap, NormalizeSharesEqualWeightsNearlyEqual) {
  const auto shares = RegionMap::normalize_shares(std::vector<double>(5, 1.0));
  for (auto s : shares) {
    // Double rounding keeps each share within ~a thousand raw 2^-63 units
    // of exact — immeasurably small relative to the share itself.
    EXPECT_NEAR(static_cast<double>(s),
                static_cast<double>(RegionMap::kHalfRaw) / 5.0, 4096.0);
  }
}

TEST(RegionMap, RebalanceHitsTargets) {
  RegionMap map(5);
  const auto targets = RegionMap::normalize_shares({1.0, 3.0, 5.0, 7.0, 9.0});
  map.rebalance(targets);
  for (std::uint32_t s = 0; s < 5; ++s) {
    EXPECT_EQ(map.share(ServerId(s)).raw(), targets[s]);
  }
  EXPECT_EQ(total_share(map), RegionMap::kHalfRaw);
}

TEST(RegionMap, RebalanceToZeroFreesServer) {
  RegionMap map(3);
  map.rebalance(RegionMap::normalize_shares({0.0, 1.0, 1.0}));
  EXPECT_EQ(map.share(ServerId(0)).raw(), 0u);
  EXPECT_TRUE(map.segments_of(ServerId(0)).empty());
}

TEST(RegionMap, RebalancePreservesUnchangedServers) {
  // A server whose target equals its current share keeps its exact region.
  RegionMap map(4);
  const auto before = map.segments_of(ServerId(2));
  auto targets = RegionMap::normalize_shares({1.0, 1.0, 1.0, 1.0});
  // Shift share from 0 to 1, leaving 2 and 3 untouched.
  const auto delta = targets[0] / 2;
  targets[0] -= delta;
  targets[1] += delta;
  map.rebalance(targets);
  EXPECT_EQ(map.segments_of(ServerId(2)), before);
}

TEST(RegionMap, ShrinkOnlyRemovesFromTheShrunkServer) {
  RegionMap map(4);
  const auto before1 = map.segments_of(ServerId(1));
  auto targets = RegionMap::normalize_shares({1.0, 1.0, 1.0, 1.0});
  const auto delta = targets[0] / 2;
  targets[0] -= delta;
  targets[3] += delta;
  map.rebalance(targets);
  // Server 1 untouched; server 0's region shrank to a subset of before.
  EXPECT_EQ(map.segments_of(ServerId(1)), before1);
}

TEST(RegionMap, GrowthReusesReleasedSpace) {
  // When one server releases a whole partition and another grows by the
  // same amount, the grown server should take over the released partition,
  // keeping the mapped point-set stable.
  RegionMap map(2);  // P = 4, each server owns exactly one partition
  const auto seg0_before = map.segments_of(ServerId(0));
  ASSERT_EQ(seg0_before.size(), 1u);
  auto targets = RegionMap::normalize_shares({0.0, 1.0});
  map.rebalance(targets);
  // Server 1 should now own server 0's former partition too.
  const auto seg1 = map.segments_of(ServerId(1));
  bool covered = false;
  for (const auto& seg : seg1) {
    if (seg.covers(seg0_before[0])) covered = true;
  }
  EXPECT_TRUE(covered);
}

TEST(RegionMap, AddServerSlotRepartitionsWithoutMovingLoad) {
  RegionMap map(4);
  map.rebalance(RegionMap::normalize_shares({4.0, 3.0, 2.0, 1.0}));
  std::vector<std::vector<UnitSegment>> before;
  for (std::uint32_t s = 0; s < 4; ++s) {
    before.push_back(map.segments_of(ServerId(s)));
  }
  EXPECT_EQ(map.partition_count(), 8u);
  const ServerId added = map.add_server_slot();  // k: 4 -> 5 forces P: 8 -> 16
  EXPECT_EQ(added, ServerId(4));
  EXPECT_EQ(map.partition_count(), 16u);
  // Paper Fig. 3: re-partitioning moves no existing load.
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(map.segments_of(ServerId(s)), before[s]);
  }
  EXPECT_EQ(map.share(ServerId(4)).raw(), 0u);
}

TEST(RegionMap, AddServerSlotNoRepartitionWhenRoomRemains) {
  RegionMap map(5);  // P = 16 covers up to k = 8
  map.add_server_slot();
  EXPECT_EQ(map.partition_count(), 16u);
  map.add_server_slot();
  map.add_server_slot();  // k = 8 still fits
  EXPECT_EQ(map.partition_count(), 16u);
  map.add_server_slot();  // k = 9 forces 32
  EXPECT_EQ(map.partition_count(), 32u);
}

TEST(RegionMap, LookupsOutsideMappedHalfReturnNothing) {
  const RegionMap map(5);
  std::size_t unmapped = 0;
  constexpr std::size_t kProbes = 4096;
  for (std::size_t i = 0; i < kProbes; ++i) {
    const auto p = UnitPoint::from_raw(
        (UnitPoint::kOneRaw / kProbes) * i);
    if (!map.owner_at(p)) ++unmapped;
  }
  // Exactly half the interval is mapped.
  EXPECT_NEAR(static_cast<double>(unmapped) / kProbes, 0.5, 0.01);
}

TEST(RegionMap, SharedStateScalesWithPartitions) {
  const RegionMap small(5);
  const RegionMap large(50);
  EXPECT_EQ(small.shared_state_bytes(), 16u * 12 + 8);
  EXPECT_EQ(large.shared_state_bytes(), 128u * 12 + 8);
}

// Property and differential tests: invariants survive long random
// rebalance sequences with server removals (zero targets), additions, and
// extreme skews, and every step's table is byte-identical to the frozen
// reference implementation's (region_map_reference.h).
class RegionMapChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegionMapChurnTest, InvariantsHoldUnderRandomChurn) {
  Xoshiro256 rng(GetParam());
  std::size_t servers = 1 + rng.next_below(8);
  RegionMap map(servers);
  reference::RegionMap ref(servers);
  ASSERT_EQ(map.snapshot(), ref.snapshot());
  for (int step = 0; step < 200; ++step) {
    const auto action = rng.next_below(10);
    if (action == 0 && servers < 40) {
      map.add_server_slot();
      ref.add_server_slot();
      ++servers;
    }
    std::vector<double> weights(servers);
    std::size_t alive = 0;
    for (auto& w : weights) {
      // ~15% of servers down; others with weights spaning 4 decades.
      if (rng.next_below(100) < 15) {
        w = 0.0;
      } else {
        w = std::pow(10.0, static_cast<double>(rng.next_below(5)) - 2.0);
        ++alive;
      }
    }
    if (alive == 0) weights[0] = 1.0;
    // rebalance() itself calls check_invariants() and aborts on violation.
    const auto targets = RegionMap::normalize_shares(weights);
    map.rebalance(targets);
    ref.rebalance(targets);
    EXPECT_EQ(total_share(map), RegionMap::kHalfRaw);
    ASSERT_EQ(map.snapshot(), ref.snapshot()) << "step " << step;
  }
}

// The same differential check at a few hundred servers, with targets shaped
// like AnuBalancer's: batches of added slots (splitting partitions as k
// crosses powers of two), failures (zero weight), recoveries and newcomers
// at exactly one partition size (§4), and otherwise the current shares
// perturbed or redrawn over four decades.
TEST_P(RegionMapChurnTest, MatchesFrozenReferenceAtScale) {
  Xoshiro256 rng(GetParam());
  std::size_t servers = 1 + rng.next_below(8);
  RegionMap map(servers);
  reference::RegionMap ref(servers);
  std::vector<bool> up(servers, true);
  for (int step = 0; step < 200; ++step) {
    std::vector<bool> recovering(servers, false);
    if (rng.next_below(4) == 0 && servers < 600) {
      for (auto n = 1 + rng.next_below(64); n > 0; --n) {
        map.add_server_slot();
        ref.add_server_slot();
        up.push_back(true);
        recovering.push_back(true);
        ++servers;
      }
      ASSERT_EQ(map.snapshot(), ref.snapshot()) << "split, step " << step;
    }
    // Weights in raw units, as AnuBalancer weighs a recovering server.
    const auto psize = static_cast<double>(map.partition_size().raw());
    const bool redraw = rng.next_below(3) == 0;
    const auto shares = map.shares();
    std::vector<double> weights(servers, 0.0);
    for (std::size_t s = 0; s < servers; ++s) {
      if (!up[s] && rng.next_below(4) == 0) up[s] = recovering[s] = true;
      if (!recovering[s] && up[s] && rng.next_below(100) < 8) up[s] = false;
      if (recovering[s]) {
        weights[s] = psize;
      } else if (up[s]) {
        weights[s] = redraw ? psize * std::pow(10.0, rng.next_double() * 4 - 2)
                            : static_cast<double>(shares[s].raw()) *
                                  (0.5 + rng.next_double());
      }
    }
    if (std::none_of(weights.begin(), weights.end(),
                     [](double w) { return w > 0.0; })) {
      up[0] = true;
      weights[0] = 1.0;
    }
    const auto targets = RegionMap::normalize_shares(weights);
    map.rebalance(targets);
    ref.rebalance(targets);
    ASSERT_EQ(map.snapshot(), ref.snapshot()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionMapChurnTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));


TEST(RegionMap, SegmentsMergeAcrossAdjacentFullPartitions) {
  // A server owning consecutive whole partitions reports one merged
  // segment, not one per partition.
  RegionMap map(2);  // P = 4, psize = 1/4, each owns one partition
  map.rebalance(RegionMap::normalize_shares({1.0, 0.0}));
  const auto segs = map.segments_of(ServerId(0));
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_NEAR(segs[0].length().to_double(), 0.5, 1e-12);
}

TEST(RegionMap, OwnerAtExactPartitionBoundaries) {
  const RegionMap map(4);  // P = 8, equal shares = exactly 1 partition each
  const auto psize = map.partition_size().raw();
  for (std::uint32_t s = 0; s < 4; ++s) {
    const auto segs = map.segments_of(ServerId(s));
    for (const auto& seg : segs) {
      // Start of an owned partition belongs to the owner; the raw point one
      // before the end does too; the end itself never does (half-open).
      EXPECT_EQ(map.owner_at(seg.begin), ServerId(s));
      EXPECT_EQ(map.owner_at(UnitPoint::from_raw(seg.end.raw() - 1)),
                ServerId(s));
    }
  }
  // Points in the unmapped half resolve to nothing.
  EXPECT_FALSE(map.owner_at(UnitPoint::from_raw(UnitPoint::kOneRaw - psize))
                   .has_value());
}

TEST(RegionMap, DoubleRepartitionPreservesSegments) {
  RegionMap map(4);
  map.rebalance(RegionMap::normalize_shares({5.0, 1.0, 1.0, 1.0}));
  std::vector<std::vector<UnitSegment>> before;
  for (std::uint32_t s = 0; s < 4; ++s) {
    before.push_back(map.segments_of(ServerId(s)));
  }
  map.add_server_slot();  // P: 8 -> 16
  for (std::size_t i = 0; i < 4; ++i) map.add_server_slot();  // k=9: P -> 32
  EXPECT_EQ(map.partition_count(), 32u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(map.segments_of(ServerId(s)), before[s]) << "server " << s;
  }
}

TEST(RegionMap, ZeroThenRestoreKeepsInvariants) {
  RegionMap map(3);
  const auto targets_a = RegionMap::normalize_shares({0.0, 1.0, 1.0});
  const auto targets_b = RegionMap::normalize_shares({1.0, 1.0, 1.0});
  for (int i = 0; i < 10; ++i) {
    map.rebalance(i % 2 ? targets_b : targets_a);
  }
  EXPECT_GT(map.share(ServerId(0)).raw(), 0u);
}

class NormalizeSharesPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NormalizeSharesPropertyTest, ExactSumAndProportionality) {
  Xoshiro256 rng(GetParam());
  const std::size_t n = 1 + rng.next_below(64);
  std::vector<double> weights(n);
  double sum = 0.0;
  for (auto& w : weights) {
    w = rng.next_below(5) == 0 ? 0.0 : std::pow(10.0, rng.next_double() * 4.0);
    sum += w;
  }
  if (sum == 0.0) weights[0] = sum = 1.0;
  const auto shares = RegionMap::normalize_shares(weights);
  UnitPoint::raw_type total = 0;
  for (auto s : shares) total += s;
  ASSERT_EQ(total, RegionMap::kHalfRaw);
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0) {
      EXPECT_EQ(shares[i], 0u);
    } else {
      const double expect =
          weights[i] / sum * static_cast<double>(RegionMap::kHalfRaw);
      EXPECT_NEAR(static_cast<double>(shares[i]), expect,
                  expect * 1e-9 + 65.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizeSharesPropertyTest,
                         ::testing::Range<std::uint64_t>(100, 116));

}  // namespace
}  // namespace anu::core
