// The agreed-upon family of hash functions used for ANU addressing.
//
// Paper §4: "Re-hashing is performed using the next hash function among an
// agreed upon family of hash functions." Every node in the cluster computes
// the same H_0, H_1, H_2, ... for a file-set name, so a lookup needs no
// shared lookup table — the function family *is* the addressing scheme.
//
// We implement a seeded 64-bit string hash (wyhash-style block mixing with a
// strong finalizer, written from scratch) and derive family member r by
// folding r into the seed. The family must be:
//   * deterministic across processes and platforms (no ASLR-dependent state),
//   * well mixed (uniform on the unit interval; tests check KS-style bounds),
//   * independent across members (probe r and probe r' uncorrelated).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/unit_point.h"

namespace anu {

/// Seeded 64-bit hash of a byte string. Stable across platforms.
[[nodiscard]] std::uint64_t hash64(std::string_view data, std::uint64_t seed);

/// Family of hash functions over file-set names.
class HashFamily {
 public:
  /// The seed of the file-set -> unit-interval family every replica of an
  /// ANU cluster uses unless configured otherwise ("anu_hash" in ASCII).
  /// include/anu/anu.h repeats the literal; libanu.cpp asserts they agree.
  static constexpr std::uint64_t kDefaultSeed = 0x616e755f68617368ULL;

  /// `family_seed` distinguishes independent families (e.g. the file-set ->
  /// unit-interval family vs. the file-set -> virtual-processor family).
  explicit HashFamily(std::uint64_t family_seed = kDefaultSeed);

  /// H_round(name) as a raw 64-bit value.
  [[nodiscard]] std::uint64_t raw(std::string_view name,
                                  std::uint32_t round) const;

  /// H_round(name) mapped to the unit interval [0, 1).
  [[nodiscard]] UnitPoint unit_point(std::string_view name,
                                     std::uint32_t round) const;

  [[nodiscard]] std::uint64_t family_seed() const { return family_seed_; }

 private:
  std::uint64_t family_seed_;
};

}  // namespace anu
