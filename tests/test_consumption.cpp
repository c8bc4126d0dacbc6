// Consumption weights (Eq. 7) by location type, against the per-location
// attribution oracle (tests/attribution_reference.cpp) and against the
// per-location reference greedy (tests/greedy_reference.cpp) with the
// same attribution.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/greedy.hpp"
#include "attribution_reference.hpp"
#include "greedy_reference.hpp"
#include "model/location_space.hpp"
#include "model/value.hpp"
#include "sim/rng.hpp"
#include "game_reference.hpp"

namespace fedshare::model {
namespace {

using game::reference::coalition_of;

std::vector<FacilityConfig> three_configs() {
  return {{"F1", 100, 1.0, 1.0}, {"F2", 400, 1.0, 1.0},
          {"F3", 800, 1.0, 1.0}};
}

// The oracle's own cases, moved here with it.

TEST(LocationSpace, HeterogeneousConsumptionAttribution) {
  // One uniform facility overlapping one heterogeneous facility on the
  // same 2-location universe.
  FacilityConfig a;
  a.name = "uniform";
  a.num_locations = 2;
  a.units_per_location = 2.0;
  FacilityConfig b;
  b.name = "het";
  b.num_locations = 2;
  b.custom_units = {6.0, 2.0};
  const auto space = LocationSpace::overlapping({a, b}, 2, 3);
  // Pool capacities: 8 and 4 (in location-id order; both cover both).
  const auto consumed = reference::attribute_consumption(
      space, game::Coalition::grand(2), {4.0, 4.0});
  // Location 0: a gets 4 * 2/8 = 1, b gets 3. Location 1: a gets
  // 4 * 2/4 = 2, b gets 2.
  EXPECT_NEAR(consumed[0], 3.0, 1e-12);
  EXPECT_NEAR(consumed[1], 5.0, 1e-12);
  // By type: location 1 (capacity 4) is position 0 of the pool's
  // (capacity, id) order, location 0 (capacity 8) position 1.
  const auto by_type =
      space.attribute_runs(game::Coalition::grand(2), {{0, 2, 4.0}});
  EXPECT_NEAR(by_type[0], 3.0, 1e-12);
  EXPECT_NEAR(by_type[1], 5.0, 1e-12);
  const auto split = space.attribute_runs(game::Coalition::grand(2),
                                          {{0, 1, 4.0}, {1, 1, 8.0}});
  // Location 1: 4 units, a 2 and b 2; location 0: 8 units, a 2, b 6.
  EXPECT_NEAR(split[0], 4.0, 1e-12);
  EXPECT_NEAR(split[1], 8.0, 1e-12);
}

TEST(LocationSpace, AttributeConsumptionProRata) {
  std::vector<FacilityConfig> configs{{"A", 2, 1.0, 1.0},
                                      {"B", 2, 3.0, 1.0}};
  const auto space = LocationSpace::overlapping(configs, 2, 5);
  const game::Coalition grand = game::Coalition::grand(2);
  // Both facilities cover both locations; capacity 4 at each. Consume 2
  // units at each location: A gets 2*2*(1/4) = 1, B gets 3.
  const auto consumed =
      reference::attribute_consumption(space, grand, {2.0, 2.0});
  EXPECT_NEAR(consumed[0], 1.0, 1e-12);
  EXPECT_NEAR(consumed[1], 3.0, 1e-12);
  const auto by_type = space.attribute_runs(grand, {{0, 2, 2.0}});
  EXPECT_NEAR(by_type[0], 1.0, 1e-12);
  EXPECT_NEAR(by_type[1], 3.0, 1e-12);
}

TEST(LocationSpace, AttributeConsumptionValidatesSize) {
  const auto space = LocationSpace::disjoint(three_configs());
  EXPECT_THROW((void)reference::attribute_consumption(
                   space, game::Coalition::grand(3), {1.0, 2.0}),
               std::invalid_argument);
}

TEST(LocationSpace, AttributeRunsRequiresRunsThatTileThePool) {
  const auto space = LocationSpace::disjoint(three_configs());
  const auto grand = game::Coalition::grand(3);
  EXPECT_NO_THROW((void)space.attribute_runs(grand, {{0, 1300, 1.0}}));
  EXPECT_THROW((void)space.attribute_runs(grand, {{0, 1299, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)space.attribute_runs(grand, {{0, 1301, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)space.attribute_runs(grand, {{0, 100, 1.0}, {101, 1199, 1.0}}),
      std::invalid_argument);
  EXPECT_THROW((void)space.attribute_runs(grand, {}), std::invalid_argument);
  // Non-members get nothing; a member's locations are all counted.
  const auto pair = space.attribute_runs(coalition_of({0, 2}),
                                         {{0, 900, 2.0}});
  EXPECT_EQ(pair, (std::vector<double>{200.0, 0.0, 1600.0}));
}

// Two facilities on one 8-location universe, interleaved by outages:
// A keeps ids 0, 2, 4, 6, 7 and B keeps 1, 3, 5, 7, all at 1 unit. Ids
// 0..6 form one capacity-1 bin shared by two grouped types whose ids
// alternate; id 7 (both, capacity 2) is a bin of its own.
LocationSpace interleaved_pair() {
  const auto full = LocationSpace::overlapping(
      {{"A", 8, 1.0, 1.0}, {"B", 8, 1.0, 1.0}}, 8, 1);
  return full.with_outages(
      {{true, false, true, false, true, false, true, true},
       {false, true, false, true, false, true, false, true}});
}

TEST(ConsumptionWeights, SplitBoundaryFallsBetweenInterleavedFacilities) {
  const LocationSpace space = interleaved_pair();
  const auto grand = game::Coalition::grand(2);
  ASSERT_EQ(space.distinct_locations(grand), 8);
  // Runs that end inside the capacity-1 bin: positions 0..2 are ids 0 (A),
  // 1 (B), 2 (A); positions 3..6 ids 3 (B), 4 (A), 5 (B), 6 (A);
  // position 7 is id 7, split evenly.
  const std::vector<alloc::ConsumedRun> runs = {
      {0, 3, 1.0}, {3, 4, 0.5}, {7, 1, 2.0}};
  const auto by_type = space.attribute_runs(grand, runs);
  EXPECT_EQ(by_type, (std::vector<double>{4.0, 3.0}));
  const auto oracle = reference::attribute_consumption(
      space, grand, {1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 2.0});
  EXPECT_EQ(by_type, oracle);
  // A boundary between two of B's ids, and one right after A's block of
  // one: every cut of the bin matches the oracle.
  for (std::size_t cut = 1; cut < 7; ++cut) {
    std::vector<double> units(8, 0.25);
    for (std::size_t p = 0; p < cut; ++p) units[p] = 0.75;
    units[7] = 2.0;
    const auto got = space.attribute_runs(
        grand, {{0, cut, 0.75}, {cut, 7 - cut, 0.25}, {7, 1, 2.0}});
    EXPECT_EQ(got, reference::attribute_consumption(space, grand, units))
        << "cut " << cut;
  }
  // The greedy itself: one class needing 4 locations reserves id 7 and
  // then three of the seven capacity-1 locations, so its reservation ends
  // inside the shared bin, between A's id 2 and B's id 3.
  DemandProfile demand;
  alloc::RequestClass rc;
  rc.count = 1.0;
  rc.min_locations = 4.0;
  demand.classes = {rc};
  std::vector<alloc::ConsumedRun> greedy_runs;
  (void)alloc::allocate_greedy(space.capacity_histogram(grand), demand.classes,
                               greedy_runs);
  ASSERT_GE(greedy_runs.size(), 3u);
  EXPECT_EQ(greedy_runs[1].first, 3u);
  EXPECT_EQ(consumption_weights(space, demand),
            reference::consumption_weights(space, demand));
}

TEST(ConsumptionWeights, RunsSplitABinInLocationIdOrder) {
  const auto grand = game::Coalition::grand(2);
  const std::vector<alloc::ConsumedRun> runs = {
      {0, 2, 1.0}, {2, 3, 2.0}, {5, 1, 3.0}};
  // A holds ids 0..2 and B ids 3..5, both at 1 unit: one bin, two
  // isolated types taken as blocks.
  const auto isolated = LocationSpace::disjoint(
      {{"A", 3, 1.0, 1.0}, {"B", 3, 1.0, 1.0}});
  EXPECT_EQ(isolated.attribute_runs(grand, runs),
            (std::vector<double>{4.0, 7.0}));
  // Custom units make A a grouped type; B stays isolated, so B's type is
  // listed first although A's ids come first in the bin.
  FacilityConfig custom{"A", 3, 1.0, 1.0};
  custom.custom_units = {1.0, 1.0, 1.0};
  const auto mixed =
      LocationSpace::disjoint({custom, {"B", 3, 1.0, 1.0}});
  EXPECT_EQ(mixed.attribute_runs(grand, runs),
            (std::vector<double>{4.0, 7.0}));
  EXPECT_EQ(mixed.attribute_runs(grand, runs),
            reference::attribute_consumption(mixed, grand,
                                             {1.0, 1.0, 2.0, 2.0, 2.0, 3.0}));
}

// repeated_sum against the additions it stands for.

double added_one_by_one(double s, double t, std::size_t k) {
  for (std::size_t j = 0; j < k; ++j) s += t;
  return s;
}

TEST(RepeatedSum, MatchesSequentialAdditions) {
  sim::Xoshiro256 rng(2010);
  int ties = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t k = rng.below(trial % 10 == 0 ? 5000 : 300);
    double t = std::ldexp(1.0 + rng.uniform(),
                          static_cast<int>(rng.below(40)) - 20);
    // Clear low mantissa bits so that halfway ties come up at every level.
    const int keep = 1 + static_cast<int>(rng.below(53));
    int exp = 0;
    const double mant = std::frexp(t, &exp);
    t = std::ldexp(std::floor(std::ldexp(mant, keep)), exp - keep);
    double s = 0.0;
    switch (rng.below(4)) {
      case 0:
        break;
      case 1:
        s = t * static_cast<double>(rng.below(1000));
        break;
      case 2:
        s = std::ldexp(1.0 + rng.uniform(),
                       static_cast<int>(rng.below(60)) - 30);
        break;
      default:
        s = DBL_MIN * rng.uniform();  // subnormal start
        break;
    }
    const double want = added_one_by_one(s, t, k);
    const double got = repeated_sum(s, t, k);
    ASSERT_EQ(got, want) << "s " << s << " t " << t << " k " << k;
    // A tie: t sits halfway between multiples of the ulp of the final
    // sum's binade.
    if (want > 0.0) {
      const double q = std::ldexp(1.0, std::ilogb(want) - 52);
      if (std::abs(t / q - std::round(t / q)) == 0.5) ++ties;
    }
  }
  EXPECT_GT(ties, 100);
  EXPECT_EQ(repeated_sum(1.0, 0.0, 10), 1.0);
  EXPECT_EQ(repeated_sum(1.0, 1e-17, 1000000), 1.0);  // rounds away
  EXPECT_EQ(repeated_sum(0.0, 0.1, 3), 0.1 + 0.1 + 0.1);
}

// The differential suite: consumption_weights (and attribute_runs on
// every coalition) against the per-location oracle on fuzzed spaces.

enum class Layout { kDisjointUniform, kOverlapping, kCustomUnits, kOutages };

FacilityConfig random_facility(sim::Xoshiro256& rng, int i, int max_locations,
                               bool custom) {
  FacilityConfig cfg;
  cfg.name = "F" + std::to_string(i);
  cfg.num_locations = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(max_locations) + 1));
  const double units[] = {1.0, 2.0, 3.0, 0.5, 1.5, 0.3};
  cfg.units_per_location = units[rng.below(6)];
  const double availability[] = {1.0, 1.0, 0.9, 0.5, 0.37};
  cfg.availability = availability[rng.below(5)];
  if (custom) {
    for (int k = 0; k < cfg.num_locations; ++k) {
      cfg.custom_units.push_back(0.5 * static_cast<double>(rng.below(5)));
    }
  }
  return cfg;
}

LocationSpace random_space(sim::Xoshiro256& rng, Layout layout) {
  const int n = 1 + static_cast<int>(rng.below(6));
  const int max_locations = 1 + static_cast<int>(rng.below(
      layout == Layout::kDisjointUniform ? 400 : 40));
  std::vector<FacilityConfig> configs;
  int max_l = 0;
  int sum_l = 0;
  for (int i = 0; i < n; ++i) {
    configs.push_back(random_facility(
        rng, i, max_locations,
        layout == Layout::kCustomUnits && rng.below(3) != 0));
    max_l = std::max(max_l, configs.back().num_locations);
    sum_l += configs.back().num_locations;
  }
  switch (layout) {
    case Layout::kDisjointUniform:
    case Layout::kCustomUnits:
      return LocationSpace::disjoint(configs);
    case Layout::kOverlapping:
      return LocationSpace::overlapping(
          configs, max_l + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(sum_l) + 1)),
          rng.next());
    case Layout::kOutages:
      break;
  }
  const LocationSpace base =
      rng.below(2) == 0
          ? LocationSpace::disjoint(configs)
          : LocationSpace::overlapping(configs, max_l + 1 + max_l / 2,
                                       rng.next());
  std::vector<std::vector<bool>> up;
  for (int i = 0; i < n; ++i) {
    std::vector<bool> mask;
    for (std::size_t k = 0; k < base.locations_of(i).size(); ++k) {
      mask.push_back(rng.below(4) != 0);
    }
    up.push_back(std::move(mask));
  }
  return base.with_outages(up);
}

DemandProfile random_demand(sim::Xoshiro256& rng, int locations) {
  DemandProfile demand;
  const std::size_t num_classes = 1 + rng.below(3);
  for (std::size_t c = 0; c < num_classes; ++c) {
    const double count[] = {1, 2, 3, 5, 20, 1.5, 1e9};
    const double r[] = {0.5, 1.0, 1.0, 2.0};
    const double d[] = {0.5, 0.8, 1.0, 1.0, 1.2, 2.0};
    alloc::RequestClass rc;
    rc.count = count[rng.below(7)];
    rc.min_locations = static_cast<double>(
        rng.below(static_cast<std::uint64_t>(locations) * 6 / 5 + 2));
    rc.units_per_location = r[rng.below(4)];
    rc.exponent = d[rng.below(6)];
    demand.classes.push_back(rc);
  }
  return demand;
}

class ConsumptionWeightsDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsumptionWeightsDifferential, MatchesThePerLocationOracle) {
  const std::uint64_t seed = GetParam();
  const auto layout = static_cast<Layout>(seed % 4);
  sim::Xoshiro256 rng(seed);
  const LocationSpace space = random_space(rng, layout);
  const int n = space.num_facilities();
  const game::Coalition grand = game::Coalition::grand(n);
  const DemandProfile demand =
      random_demand(rng, space.distinct_locations(grand));
  const std::string what = "seed " + std::to_string(seed);

  // The grand coalition: bitwise on the all-isolated layout, within
  // 1e-12 relative elsewhere.
  const std::vector<double> got = consumption_weights(space, demand);
  const std::vector<double> want =
      reference::consumption_weights(space, demand);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (layout == Layout::kDisjointUniform) {
      EXPECT_EQ(got[i], want[i]) << what << " facility " << i;
    } else {
      EXPECT_NEAR(got[i], want[i], 1e-12 * std::abs(want[i]))
          << what << " facility " << i;
    }
  }

  // Every coalition: the type attribution of the histogram runs against
  // the oracle's attribution of the pool allocation, and against the
  // per-location reference greedy with the same attribution.
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    const auto coalition = game::Coalition::from_bits(mask);
    std::vector<alloc::ConsumedRun> runs;
    (void)alloc::allocate_greedy(space.capacity_histogram(coalition),
                                 demand.classes, runs);
    const std::vector<double> by_type = space.attribute_runs(coalition, runs);
    const alloc::AllocationResult pooled =
        reference::coalition_allocation(space, demand, coalition);
    const std::vector<double> oracle = reference::attribute_consumption(
        space, coalition, pooled.units_per_location);
    const alloc::LocationPool pool = space.pool_for(coalition);
    const std::vector<double> per_location = reference::attribute_consumption(
        space, coalition,
        alloc::reference::per_location_greedy(pool, demand.classes)
            .units_per_location);
    // The reference greedy matches per location within 1e-12 of the
    // total consumed, so a facility's sum within that times its count.
    const double slack =
        1e-12 * std::max(1.0, pooled.total_units) *
        static_cast<double>(std::max<std::size_t>(1, pool.num_locations()));
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      if (layout == Layout::kDisjointUniform) {
        EXPECT_EQ(by_type[i], oracle[i]) << what << " mask " << mask;
      } else {
        EXPECT_NEAR(by_type[i], oracle[i], 1e-12 * std::abs(oracle[i]))
            << what << " mask " << mask << " facility " << i;
      }
      EXPECT_NEAR(by_type[i], per_location[i], slack)
          << what << " mask " << mask << " facility " << i;
      if ((mask >> i & 1) == 0) {
        EXPECT_EQ(by_type[i], 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FuzzedSpaces, ConsumptionWeightsDifferential,
                         ::testing::Range<std::uint64_t>(0, 400));

}  // namespace
}  // namespace fedshare::model
