// Text configuration for `anu_serve` (the live runtime demo).
//
// Same line-oriented `key value` format as the simulator's config files
// ('#' comments, blank lines ignored), with runtime-specific keys:
//
//   servers 3                 # protocol nodes to host
//   port 9700                 # client-facing ROUTE socket (0 = ephemeral)
//   tuning_interval_s 1.0     # realtime demos want fast rounds
//   report_grace_s 0.05
//   heartbeats on             # on | off (off = oracle membership)
//   heartbeat_interval_s 0.2
//   run_seconds 0             # stop after this long; 0 = until killed
//   slow_factors 1 1 4        # synthetic per-server latency multipliers
//   hash_seed 7011347502584324984
//
// parse/write round-trip exactly (tests/serve_config_test.cpp), so a spec
// printed by `anu_serve --dump-config` re-parses to the same run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "hash/hash_family.h"

namespace anu::runtime {

struct ServeSpec {
  std::size_t servers = 3;
  std::uint16_t port = 9700;
  double tuning_interval = 1.0;
  double report_grace = 0.05;
  bool use_heartbeats = true;
  double heartbeat_interval = 0.2;
  double run_seconds = 0.0;
  /// Synthetic data-plane: server s's observed latency is proportional to
  /// slow_factors[s]. Sized to `servers` (missing entries default to 1).
  std::vector<double> slow_factors;
  std::uint64_t hash_seed = HashFamily::kDefaultSeed;
};

struct ServeConfigError {
  std::size_t line = 0;
  std::string message;
};

/// Parses the format above; nullopt (and `error`, if given) on failure.
std::optional<ServeSpec> parse_serve_config(std::istream& is,
                                            ServeConfigError* error = nullptr);

/// Writes a spec in the exact format parse_serve_config reads.
void write_serve_config(std::ostream& os, const ServeSpec& spec);

}  // namespace anu::runtime
