// Fault injection: outage scenarios sampled from facility availability.
//
// The paper treats availability T_i as a first-class dimension of
// contributed value (Sec. 2.1, cost term gamma*T_i), but the nominal
// V(S) pipeline evaluates a fully-available location space. This module
// asks the robustness question directly: sample per-location outages
// from each facility's T_i (every location of facility i is up
// independently with probability T_i), recompute the whole game and all
// sharing schemes on the degraded space, and report how each facility's
// payoff distributes across K such scenarios — expectation, quantiles,
// and how often each scheme's payoff vector stays in the (realised)
// core. Everything is deterministic given the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sharing.hpp"
#include "model/federation.hpp"
#include "model/location_space.hpp"
#include "runtime/budget.hpp"

namespace fedshare::runtime {

/// One sampled outage scenario: up[i][k] says whether facility i's k-th
/// location (indexed like LocationSpace::locations_of(i)) survived.
struct OutageScenario {
  std::vector<std::vector<bool>> up;
};

/// Seeded per-location outage sampler. Scenario k is a pure function of
/// (seed, k) — sampling scenarios out of order or twice yields identical
/// masks, which is what makes resilience reports reproducible.
class OutageModel {
 public:
  explicit OutageModel(std::uint64_t seed) noexcept : seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Samples scenario `scenario` for `space`: each location of facility
  /// i is up independently with probability T_i.
  [[nodiscard]] OutageScenario sample(const model::LocationSpace& space,
                                      std::uint64_t scenario) const;

  /// The mask sample() draws for `count` locations at availability
  /// `availability` when `skip` locations come before them: scenario
  /// `scenario`'s stream takes one draw per location, facility by
  /// facility, whatever the facility's T_i, so the first `skip` draws
  /// are passed over and the stream stops after these `count`. On a
  /// disjoint space, facility i's mask with skip = the locations of
  /// facilities 0..i-1 is sample(space, scenario).up[i], draw for draw.
  [[nodiscard]] std::vector<bool> sample_locations(std::uint64_t scenario,
                                                   std::size_t skip,
                                                   std::size_t count,
                                                   double availability) const;

  /// The degraded space realising sample(space, scenario).
  [[nodiscard]] model::LocationSpace degrade(const model::LocationSpace& space,
                                             std::uint64_t scenario) const;

 private:
  std::uint64_t seed_;
};

/// Distribution summary of one per-facility quantity across scenarios.
struct OutageStats {
  double mean = 0.0;
  double q05 = 0.0;  ///< 5th percentile (linear interpolation)
  double q50 = 0.0;  ///< median
  double q95 = 0.0;  ///< 95th percentile
  double min = 0.0;
  double max = 0.0;
};

/// One sharing scheme's behaviour across the sampled scenarios.
struct SchemeOutageReport {
  game::Scheme scheme;
  std::vector<OutageStats> shares;   ///< per facility, of the realised V(N)
  std::vector<OutageStats> payoffs;  ///< share * realised V(N)
  double core_fraction = 0.0;  ///< scenarios where the payoff is in the core
};

/// Full resilience report.
struct OutageReport {
  std::uint64_t seed = 0;
  int scenarios_requested = 0;
  int scenarios_evaluated = 0;  ///< < requested when the budget tripped
  [[nodiscard]] bool complete() const noexcept {
    return scenarios_evaluated == scenarios_requested;
  }
  OutageStats grand_value;  ///< realised V(N) across scenarios
  std::vector<SchemeOutageReport> schemes;
};

/// Recomputes V(S), every sharing scheme, and core membership on K
/// degraded copies of `fed` and summarises the per-facility outcome
/// distributions. Deterministic given `seed`; with T_i = 1 for all
/// facilities every scenario equals the nominal federation, so all means
/// collapse to the nominal shares. `budget` is charged through the
/// underlying tabulations and solvers; when it trips, the scenarios
/// evaluated so far are summarised and scenarios_evaluated records the
/// truncation. Requires scenarios >= 1.
[[nodiscard]] OutageReport evaluate_outages(
    const model::Federation& fed, int scenarios, std::uint64_t seed,
    const ComputeBudget& budget = {});

/// Summarises one sample vector (helper, exposed for tests).
[[nodiscard]] OutageStats summarize(std::vector<double> samples);

}  // namespace fedshare::runtime
