// Frozen reference for core::RegionMap's mutators: the pre-index
// rebalance (release / acquire / partial_of, each rescanning the table) and
// add_server_slot, kept verbatim. The live map must produce byte-identical
// snapshots under any sequence of targets and slot additions
// (RegionMapChurnTest in region_map_test.cpp). It is deliberately slow —
// O(servers × partitions) per rebalance — and must not be optimized:
// its value is that it is the old code.
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "common/assert.h"
#include "core/region_map.h"

namespace anu::core::reference {

class RegionMap {
 public:
  static constexpr UnitPoint::raw_type kHalfRaw = core::RegionMap::kHalfRaw;

  explicit RegionMap(std::size_t server_count) {
    ANU_REQUIRE(server_count > 0);
    const std::size_t p = core::RegionMap::required_partitions(server_count);
    psize_ = UnitPoint::kOneRaw / p;
    partitions_.assign(p, Partition{});
    shares_.assign(server_count, 0);

    std::vector<double> equal(server_count, 1.0);
    rebalance(core::RegionMap::normalize_shares(equal));
  }

  [[nodiscard]] core::RegionMap::Snapshot snapshot() const {
    core::RegionMap::Snapshot out;
    out.reserve(partitions_.size());
    for (const Partition& part : partitions_) {
      out.emplace_back(part.owner.valid() ? part.owner.value()
                                          : ServerId::kInvalidValue,
                       part.occupied);
    }
    return out;
  }

  void rebalance(const std::vector<UnitPoint::raw_type>& targets_raw) {
    ANU_REQUIRE(targets_raw.size() == shares_.size());
    const UnitPoint::raw_type total =
        std::accumulate(targets_raw.begin(), targets_raw.end(),
                        UnitPoint::raw_type{0});
    ANU_REQUIRE(total == kHalfRaw);

    // Shrink first so grown servers find free space, then grow. Partitions
    // freed by the shrink phase head the growers' claim order (locality).
    std::vector<std::size_t> free_order;
    for (std::uint32_t s = 0; s < shares_.size(); ++s) {
      if (targets_raw[s] < shares_[s]) {
        release(s, shares_[s] - targets_raw[s], free_order);
      }
    }
    std::sort(free_order.begin(), free_order.end());
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      if (!partitions_[i].owner.valid() &&
          std::find(free_order.begin(), free_order.end(), i) ==
              free_order.end()) {
        free_order.push_back(i);  // long-free partitions, after freed ones
      }
    }
    for (std::uint32_t s = 0; s < shares_.size(); ++s) {
      if (targets_raw[s] > shares_[s]) {
        acquire(s, targets_raw[s] - shares_[s], free_order);
      }
    }
    check_invariants();
  }

  ServerId add_server_slot() {
    const auto id = ServerId(static_cast<std::uint32_t>(shares_.size()));
    shares_.push_back(0);
    // Paper §4: "if the added server increases k such that there are fewer
    // than 2^(ceil(lg k)+1) partitions, the algorithm re-partitions the
    // unit interval" — a refinement that moves no existing load (Fig. 3).
    while (partitions_.size() <
           core::RegionMap::required_partitions(shares_.size())) {
      split_partitions();
    }
    check_invariants();
    return id;
  }

 private:
  struct Partition {
    ServerId owner;                    // invalid when free
    UnitPoint::raw_type occupied = 0;  // prefix length, 0 < occ <= psize_
  };

  [[nodiscard]] std::optional<std::size_t> partial_of(std::uint32_t s) const {
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      const Partition& part = partitions_[i];
      if (part.owner == ServerId(s) && part.occupied > 0 &&
          part.occupied < psize_) {
        return i;
      }
    }
    return std::nullopt;
  }

  void release(std::uint32_t server, UnitPoint::raw_type amount,
               std::vector<std::size_t>& freed) {
    ANU_REQUIRE(shares_[server] >= amount);
    shares_[server] -= amount;
    while (amount > 0) {
      std::size_t victim;
      if (auto partial = partial_of(server)) {
        victim = *partial;
      } else {
        // No partial: convert the highest-index full partition.
        victim = partitions_.size();
        for (std::size_t i = partitions_.size(); i-- > 0;) {
          if (partitions_[i].owner == ServerId(server)) {
            victim = i;
            break;
          }
        }
        ANU_ENSURE(victim < partitions_.size());
      }
      Partition& part = partitions_[victim];
      const UnitPoint::raw_type cut = std::min(part.occupied, amount);
      part.occupied -= cut;
      amount -= cut;
      if (part.occupied == 0) {
        part.owner = ServerId::invalid();
        freed.push_back(victim);
      }
    }
  }

  void acquire(std::uint32_t server, UnitPoint::raw_type amount,
               std::vector<std::size_t>& free_order) {
    shares_[server] += amount;
    // Whole-partition claims first, preferentially from space released this
    // round (free_order lists freed-this-round partitions before long-free
    // ones): re-mapping just-released space keeps the cluster's mapped
    // point-set stable, so only the shrinking servers' file sets re-hash —
    // the paper's minimal-movement / locality-preservation property (§4).
    auto claim_next = [&](UnitPoint::raw_type occupy) {
      while (!free_order.empty() &&
             partitions_[free_order.front()].owner.valid()) {
        free_order.erase(free_order.begin());  // consumed by an earlier grower
      }
      ANU_ENSURE(!free_order.empty());  // free partition always exists
      const std::size_t idx = free_order.front();
      free_order.erase(free_order.begin());
      partitions_[idx] = Partition{ServerId(server), occupy};
    };
    while (amount >= psize_) {
      claim_next(psize_);
      amount -= psize_;
    }
    // Sub-partition tail: top up the existing partial partition (contiguous
    // prefix growth), then at most one fresh partial claim — preserving the
    // at-most-one-partial invariant.
    while (amount > 0) {
      if (auto partial = partial_of(server)) {
        Partition& part = partitions_[*partial];
        const UnitPoint::raw_type fill =
            std::min(psize_ - part.occupied, amount);
        part.occupied += fill;
        amount -= fill;
      } else {
        claim_next(amount);
        amount = 0;
      }
    }
  }

  void split_partitions() {
    std::vector<Partition> next(partitions_.size() * 2, Partition{});
    const UnitPoint::raw_type half = psize_ / 2;
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      const Partition& part = partitions_[i];
      if (!part.owner.valid()) continue;
      if (part.occupied <= half) {
        next[2 * i] = Partition{part.owner, part.occupied};
      } else {
        next[2 * i] = Partition{part.owner, half};
        next[2 * i + 1] = Partition{part.owner, part.occupied - half};
      }
    }
    partitions_ = std::move(next);
    psize_ = half;
  }

  void check_invariants() const {
    std::vector<UnitPoint::raw_type> tally(shares_.size(), 0);
    std::vector<std::size_t> partials(shares_.size(), 0);
    std::size_t free_count = 0;
    for (const Partition& part : partitions_) {
      if (!part.owner.valid()) {
        ANU_ENSURE(part.occupied == 0);
        ++free_count;
        continue;
      }
      ANU_ENSURE(part.occupied > 0 && part.occupied <= psize_);
      ANU_ENSURE(part.owner.value() < shares_.size());
      tally[part.owner.value()] += part.occupied;
      if (part.occupied < psize_) ++partials[part.owner.value()];
    }
    UnitPoint::raw_type total = 0;
    for (std::size_t s = 0; s < shares_.size(); ++s) {
      ANU_ENSURE(tally[s] == shares_[s]);
      ANU_ENSURE(partials[s] <= 1);  // at most one partial partition (§4)
      total += tally[s];
    }
    ANU_ENSURE(total == kHalfRaw);  // half-occupancy invariant (§4)
    ANU_ENSURE(free_count >= 1);    // a recovered server can always be placed
  }

  UnitPoint::raw_type psize_ = 0;
  std::vector<Partition> partitions_;
  std::vector<UnitPoint::raw_type> shares_;  // per server id
};

}  // namespace anu::core::reference
