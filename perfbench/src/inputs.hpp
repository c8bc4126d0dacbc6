// Seeded input generators for the benchmark workloads.
//
// Every input a run uses is a pure function of (workload, seed, index):
// the same seed gives the same configs, roster and event script on any
// host, so two runs with one seed see identical work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/event.hpp"

namespace fedbench {

/// splitmix64: small, portable and fully specified, unlike the
/// implementation-defined std:: distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  int uniform_int(int lo, int hi);

 private:
  std::uint64_t state_;
};

/// Seed of stream `index` of `workload` under the run's `seed`.
[[nodiscard]] std::uint64_t stream_seed(const std::string& workload,
                                        std::uint64_t seed,
                                        std::uint64_t index);

/// INI config with one facility per entry of `units`, laid out on
/// bands: facility t takes the t-th of equal bands of [100, 1000], its
/// locations drawn within +-25 of the band's centre, and `units[t]`
/// units. The facilities appear in a random order. Two demand classes:
/// {count 20, min_locations 300} and {count 5, min_locations 900,
/// exponent 1.2}.
[[nodiscard]] std::string banded_config(Rng& rng, const std::vector<int>& units);

/// Number of facilities in the serve roster.
inline constexpr int kServeRoster = 6;

/// Events that assemble the serve roster from an empty state: one
/// demand update, then kServeRoster joins.
[[nodiscard]] std::vector<fedshare::serve::Event> serve_roster();

/// One outage flap: outage-start on `facility` with a drawn outage seed
/// and scenario, then the matching outage-end.
struct Flap {
  int facility = 0;
  std::uint64_t outage_seed = 1;
  std::uint64_t scenario = 0;
};

/// Flap `index` of a run: facilities cycle 0..kServeRoster-1, the
/// outage seed is drawn from 1..4 and the scenario from 0..3.
[[nodiscard]] Flap serve_flap(Rng& rng, std::size_t index);

[[nodiscard]] fedshare::serve::Event outage_start(const Flap& flap);
[[nodiscard]] fedshare::serve::Event outage_end(const Flap& flap);

}  // namespace fedbench
