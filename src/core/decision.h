// The two decisions every ANU node shares (paper §4).
//
// Placement is a pure function of (hash family, region map): hash the name
// with successive family members until the point lands in some server's
// mapped region. The delegate is stateless: it turns one interval's latency
// reports into a new map and keeps nothing else. The simulator's
// AnuBalancer, the message protocol's delegate, the chaos checker and the
// public libanu facade all call these two functions, so they cannot drift
// apart.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "balance/balancer.h"
#include "core/region_map.h"
#include "core/tuner.h"
#include "hash/hash_family.h"
#include "obs/trace_sink.h"

namespace anu::core {

/// Re-hash budget of locate(). Each round hits a mapped region with
/// probability 1/2 (half occupancy), so a miss after 64 rounds has chance
/// 2^-64 and means a corrupted region map.
inline constexpr std::uint32_t kMaxProbeRounds = 64;

/// Where a name lives, and how many hash probes it took to find out
/// (paper §4: "On average, the system requires two probes").
struct Lookup {
  ServerId server;
  std::uint32_t probes = 0;
};

/// The owner of `name` on `map`. Aborts if kMaxProbeRounds probes all miss.
[[nodiscard]] Lookup locate(const RegionMap& map, const HashFamily& family,
                            std::string_view name);

/// One delegate round applied to `map`: tuner, normalize_shares, rebalance.
/// `up` and `reports` are indexed by server id. An up server with no report
/// completed nothing this interval and reads as idle ({0.0, 0}: bounded
/// growth, never a stalled round); a down server gets no report, so its
/// region is reclaimed. `trace`/`now` are passed to run_delegate_round.
TunerDecision retune(
    RegionMap& map, const std::vector<bool>& up,
    const std::vector<std::optional<balance::ServerReport>>& reports,
    const TunerConfig& config, obs::TraceSink* trace = nullptr,
    SimTime now = 0);

}  // namespace anu::core
