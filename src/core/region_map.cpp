#include "core/region_map.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/assert.h"

namespace anu::core {

std::size_t RegionMap::required_partitions(std::size_t k) {
  ANU_REQUIRE(k > 0);
  std::size_t e = 0;
  while ((std::size_t{1} << e) < k) ++e;  // e = ceil(lg k)
  return std::size_t{1} << (e + 1);
}

RegionMap::RegionMap(std::size_t server_count) {
  ANU_REQUIRE(server_count > 0);
  const std::size_t p = required_partitions(server_count);
  psize_ = UnitPoint::kOneRaw / p;
  partitions_.assign(p, Partition{});
  shares_.assign(server_count, 0);

  std::vector<double> equal(server_count, 1.0);
  rebalance(normalize_shares(equal));
}

std::optional<ServerId> RegionMap::owner_at(UnitPoint p) const {
  const UnitPoint::raw_type raw = p.raw();
  if (raw >= UnitPoint::kOneRaw) return std::nullopt;
  const std::size_t idx = raw / psize_;
  const Partition& part = partitions_[idx];
  if (!part.owner.valid()) return std::nullopt;
  const UnitPoint::raw_type offset = raw - static_cast<UnitPoint::raw_type>(idx) * psize_;
  if (offset < part.occupied) return part.owner;
  return std::nullopt;
}

UnitPoint RegionMap::share(ServerId id) const {
  ANU_REQUIRE(id.value() < shares_.size());
  return UnitPoint::from_raw(shares_[id.value()]);
}

std::vector<UnitPoint> RegionMap::shares() const {
  std::vector<UnitPoint> out;
  out.reserve(shares_.size());
  for (auto raw : shares_) out.push_back(UnitPoint::from_raw(raw));
  return out;
}

std::vector<UnitSegment> RegionMap::segments_of(ServerId id) const {
  ANU_REQUIRE(id.value() < shares_.size());
  std::vector<UnitSegment> segments;
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const Partition& part = partitions_[i];
    if (part.owner != id || part.occupied == 0) continue;
    const auto start = static_cast<UnitPoint::raw_type>(i) * psize_;
    const UnitSegment seg{UnitPoint::from_raw(start),
                          UnitPoint::from_raw(start + part.occupied)};
    // Merge with the previous segment when contiguous (adjacent partitions
    // fully occupied by the same server).
    if (!segments.empty() && segments.back().end == seg.begin) {
      segments.back() = UnitSegment{segments.back().begin, seg.end};
    } else {
      segments.push_back(seg);
    }
  }
  return segments;
}

void RegionMap::rebalance(const std::vector<UnitPoint::raw_type>& targets_raw) {
  ANU_REQUIRE(targets_raw.size() == shares_.size());
  const UnitPoint::raw_type total =
      std::accumulate(targets_raw.begin(), targets_raw.end(),
                      UnitPoint::raw_type{0});
  ANU_REQUIRE(total == kHalfRaw);

  // One pass indexes the table: each server's partial partition (at most
  // one, §4), its full partitions chained from the highest index down, and
  // the partitions that are already free.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> partial(shares_.size(), kNone);
  std::vector<std::size_t> top_full(shares_.size(), kNone);
  std::vector<std::size_t> next_full(partitions_.size(), kNone);
  std::vector<std::size_t> long_free;
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const Partition& part = partitions_[i];
    if (!part.owner.valid()) {
      long_free.push_back(i);
    } else if (part.occupied < psize_) {
      partial[part.owner.value()] = i;
    } else {
      next_full[i] = std::exchange(top_full[part.owner.value()], i);
    }
  }

  // Shrink first so grown servers find free space. A shrinking server cuts
  // its partial, then its highest-index full partitions.
  std::vector<std::size_t> free_order;
  for (std::uint32_t s = 0; s < shares_.size(); ++s) {
    if (targets_raw[s] >= shares_[s]) continue;
    for (UnitPoint::raw_type amount = shares_[s] - targets_raw[s]; amount > 0;) {
      std::size_t victim = std::exchange(partial[s], kNone);
      if (victim == kNone) {
        victim = top_full[s];
        ANU_ENSURE(victim != kNone);
        top_full[s] = next_full[victim];
      }
      Partition& part = partitions_[victim];
      const UnitPoint::raw_type cut = std::min(part.occupied, amount);
      part.occupied -= cut;
      amount -= cut;
      if (part.occupied == 0) {
        part.owner = ServerId::invalid();
        free_order.push_back(victim);
      }
    }
    shares_[s] = targets_raw[s];
  }

  // Grow. Whole-partition claims come first, from the space freed this round
  // in index order, then from long-free space: re-mapping just-released
  // space keeps the cluster's mapped point-set stable, so only the shrinking
  // servers' file sets re-hash — the paper's minimal-movement /
  // locality-preservation property (§4). The sub-partition tail tops up the
  // grower's partial (contiguous prefix growth), then makes at most one
  // fresh partial claim, preserving the at-most-one-partial invariant.
  std::sort(free_order.begin(), free_order.end());
  free_order.insert(free_order.end(), long_free.begin(), long_free.end());
  std::size_t cursor = 0;
  const auto claim = [&](std::uint32_t s, UnitPoint::raw_type occupy) {
    ANU_ENSURE(cursor < free_order.size());  // free partition always exists
    partitions_[free_order[cursor++]] = Partition{ServerId(s), occupy};
  };
  for (std::uint32_t s = 0; s < shares_.size(); ++s) {
    if (targets_raw[s] <= shares_[s]) continue;
    UnitPoint::raw_type amount = targets_raw[s] - shares_[s];
    shares_[s] = targets_raw[s];
    for (; amount >= psize_; amount -= psize_) claim(s, psize_);
    if (amount > 0 && partial[s] != kNone) {
      Partition& part = partitions_[partial[s]];
      const UnitPoint::raw_type fill = std::min(psize_ - part.occupied, amount);
      part.occupied += fill;
      amount -= fill;
    }
    if (amount > 0) claim(s, amount);
  }
  check_invariants();
}

void RegionMap::split_partitions() {
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

ServerId RegionMap::add_server_slot() {
  const auto id = ServerId(static_cast<std::uint32_t>(shares_.size()));
  shares_.push_back(0);
  // Paper §4: "if the added server increases k such that there are fewer
  // than 2^(ceil(lg k)+1) partitions, the algorithm re-partitions the unit
  // interval" — a refinement that moves no existing load (Fig. 3).
  while (partitions_.size() < required_partitions(shares_.size())) {
    split_partitions();
  }
  check_invariants();
  return id;
}

std::vector<UnitPoint::raw_type> RegionMap::normalize_shares(
    const std::vector<double>& weights) {
  ANU_REQUIRE(!weights.empty());
  double sum = 0.0;
  for (double w : weights) {
    ANU_REQUIRE(w >= 0.0);
    sum += w;
  }
  ANU_REQUIRE(sum > 0.0);

  std::vector<UnitPoint::raw_type> out(weights.size(), 0);
  const auto half = static_cast<double>(kHalfRaw);
  UnitPoint::raw_type assigned = 0;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out[i] = static_cast<UnitPoint::raw_type>(half * (weights[i] / sum));
    assigned += out[i];
    if (out[i] > out[largest]) largest = i;
  }
  // Double rounding can land a hair on either side of the exact total; the
  // discrepancy (a few raw units of 2^-63 each) goes onto the largest share.
  if (assigned <= kHalfRaw) {
    out[largest] += kHalfRaw - assigned;
  } else {
    const UnitPoint::raw_type excess = assigned - kHalfRaw;
    ANU_ENSURE(out[largest] >= excess);
    out[largest] -= excess;
  }
  return out;
}

RegionMap::Snapshot RegionMap::snapshot() const {
  Snapshot out;
  out.reserve(partitions_.size());
  for (const Partition& part : partitions_) {
    out.emplace_back(part.owner.valid() ? part.owner.value()
                                        : ServerId::kInvalidValue,
                     part.occupied);
  }
  return out;
}

std::optional<RegionMap> RegionMap::try_from_snapshot(
    const Snapshot& snapshot, std::size_t server_count) {
  const std::size_t p = snapshot.size();
  if (p == 0 || (p & (p - 1)) != 0 ||  // a power of two
      p < required_partitions(server_count)) {
    return std::nullopt;
  }
  RegionMap map;
  map.psize_ = UnitPoint::kOneRaw / p;
  map.partitions_.reserve(p);
  map.shares_.assign(server_count, 0);
  for (const auto& [owner, occupied] : snapshot) {
    Partition part;
    if (owner != ServerId::kInvalidValue) {
      if (owner >= server_count) return std::nullopt;
      part.owner = ServerId(owner);
      map.shares_[owner] += occupied;
    }
    part.occupied = occupied;
    map.partitions_.push_back(part);
  }
  if (!map.invariants_hold()) return std::nullopt;
  return map;
}

RegionMap RegionMap::from_snapshot(const Snapshot& snapshot,
                                   std::size_t server_count) {
  auto map = try_from_snapshot(snapshot, server_count);
  ANU_REQUIRE(map.has_value());
  return std::move(*map);
}

bool RegionMap::operator==(const RegionMap& other) const {
  return psize_ == other.psize_ && partitions_ == other.partitions_ &&
         shares_ == other.shares_;
}

std::size_t RegionMap::shared_state_bytes() const {
  // Per partition: owner id (4 bytes) + occupied prefix (8 bytes); plus the
  // partition count itself (8 bytes). This is what the delegate distributes
  // after each round (§4: "the only replicated state needed").
  return partitions_.size() * 12 + 8;
}

void RegionMap::check_invariants() const { ANU_ENSURE(invariants_hold()); }

bool RegionMap::invariants_hold() const {
  std::vector<UnitPoint::raw_type> tally(shares_.size(), 0);
  std::vector<std::size_t> partials(shares_.size(), 0);
  std::size_t free_count = 0;
  for (const Partition& part : partitions_) {
    if (!part.owner.valid()) {
      if (part.occupied != 0) return false;
      ++free_count;
      continue;
    }
    if (part.occupied == 0 || part.occupied > psize_ ||
        part.owner.value() >= shares_.size()) {
      return false;
    }
    tally[part.owner.value()] += part.occupied;
    if (part.occupied < psize_) ++partials[part.owner.value()];
  }
  UnitPoint::raw_type total = 0;
  for (std::size_t s = 0; s < shares_.size(); ++s) {
    // At most one partial partition per server (§4).
    if (tally[s] != shares_[s] || partials[s] > 1) return false;
    total += tally[s];
  }
  // Half occupancy (§4), and a recovered server can always be placed.
  return total == kHalfRaw && free_count >= 1;
}

}  // namespace anu::core
