// The unit-interval partition table — ANU randomization's only shared state.
//
// Paper §4. For a system with k servers the unit interval is divided into
// P = 2^(ceil(lg k) + 1) equal partitions. Servers are assigned to half of
// the interval (the half-occupancy invariant): each server owns a set of
// whole partitions plus at most one prefix-occupied ("partial") partition.
// Those two invariants together guarantee a free partition always exists for
// a recovering or newly-added server:
//
//   full partitions  <= P/2 - 1 whenever any partial exists (shares sum to
//                       P/2 partition-sizes), and
//   partials         <= k <= P/2,
//   so occupied partitions <= P - 1.
//
// The table is small — O(P) = O(k) entries — and is the *only* state that
// must be replicated cluster-wide, which is the paper's shared-state
// advantage over virtual processors (§5.4).
//
// Region scaling preserves locality: shrinking a server releases from its
// partial partition first and then from its highest-indexed whole
// partitions; growth claims whole free partitions first (those freed this
// round in index order, then long-free ones), then fills the partial. The
// load that moves is exactly the symmetric difference of the old and new
// region maps.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "common/unit_point.h"

namespace anu::core {

class RegionMap {
 public:
  /// Raw occupancy total: exactly half the unit interval.
  static constexpr UnitPoint::raw_type kHalfRaw = UnitPoint::kOneRaw / 2;

  /// Builds the table for `server_count` servers with equal shares
  /// (paper §4: "ANU randomization initially assigns servers mapped regions
  /// of equal length, because it has no knowledge of server capabilities").
  explicit RegionMap(std::size_t server_count);

  /// Number of partitions P (always 2^(ceil(lg k)+1) for the current k).
  [[nodiscard]] std::size_t partition_count() const {
    return partitions_.size();
  }
  [[nodiscard]] UnitPoint partition_size() const {
    return UnitPoint::from_raw(psize_);
  }
  [[nodiscard]] std::size_t server_count() const { return shares_.size(); }

  /// O(1) point location: which server's mapped region contains p, if any.
  [[nodiscard]] std::optional<ServerId> owner_at(UnitPoint p) const;

  /// Total mapped length of one server.
  [[nodiscard]] UnitPoint share(ServerId id) const;
  /// All shares, indexed by server id.
  [[nodiscard]] std::vector<UnitPoint> shares() const;

  /// The server's mapped region as maximal disjoint segments (for tests
  /// and diagnostics).
  [[nodiscard]] std::vector<UnitSegment> segments_of(ServerId id) const;

  /// Rescales every server's mapped region to the given targets.
  /// `targets_raw` is indexed by server id, entries must sum to kHalfRaw
  /// (use normalize_shares). Locality-preserving: only the share deltas move.
  void rebalance(const std::vector<UnitPoint::raw_type>& targets_raw);

  /// Registers a new server slot (id == current server_count()), doubling
  /// the partition count first if 2^(ceil(lg k')+1) exceeds it. Re-
  /// partitioning moves no load (paper Fig. 3). The new server starts with a
  /// zero share; callers follow up with rebalance() to give it space.
  ServerId add_server_slot();

  /// Largest-remainder rounding of positive weights onto kHalfRaw so the
  /// result sums exactly to the half-occupancy total. Zero-weight servers
  /// get zero share (down servers).
  [[nodiscard]] static std::vector<UnitPoint::raw_type> normalize_shares(
      const std::vector<double>& weights);

  /// Serialized size of the table (what every node must replicate):
  /// one (owner, occupied-prefix) entry per partition.
  [[nodiscard]] std::size_t shared_state_bytes() const;

  /// Verifies: share bookkeeping matches the table, total occupancy is
  /// exactly kHalfRaw, every server has at most one partial partition, and
  /// at least one partition is completely free. Aborts on violation.
  void check_invariants() const;

  /// Partitions required for k servers: 2^(ceil(lg k) + 1).
  [[nodiscard]] static std::size_t required_partitions(std::size_t k);

  /// Wire form: one (owner, occupied-prefix) pair per partition — exactly
  /// what the delegate broadcasts after a round (§4: "the only replicated
  /// state"). Owner kInvalid (0xffffffff) marks a free partition.
  using Snapshot = std::vector<std::pair<std::uint32_t, UnitPoint::raw_type>>;
  [[nodiscard]] Snapshot snapshot() const;
  /// Rebuilds a table from a snapshot (partition count must be a power of
  /// two >= required for `server_count`); verifies all invariants.
  [[nodiscard]] static RegionMap from_snapshot(const Snapshot& snapshot,
                                               std::size_t server_count);
  /// from_snapshot for untrusted input (a snapshot off the network):
  /// nullopt instead of an abort when any of those checks fails.
  [[nodiscard]] static std::optional<RegionMap> try_from_snapshot(
      const Snapshot& snapshot, std::size_t server_count);
  /// Content equality (same partitions, same owners, same prefixes).
  bool operator==(const RegionMap& other) const;

 private:
  RegionMap() = default;  // for from_snapshot

  struct Partition {
    ServerId owner;                    // invalid when free
    UnitPoint::raw_type occupied = 0;  // prefix length, 0 < occ <= psize_

    bool operator==(const Partition&) const = default;
  };

  void split_partitions();
  /// check_invariants() without the abort.
  [[nodiscard]] bool invariants_hold() const;

  UnitPoint::raw_type psize_ = 0;
  std::vector<Partition> partitions_;
  std::vector<UnitPoint::raw_type> shares_;  // per server id
};

}  // namespace anu::core
