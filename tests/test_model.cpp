// Tests for the economic-model layer: utilities, facilities, demand,
// costs, location spaces, and the federation value engine.
#include <gtest/gtest.h>

#include "core/shapley.hpp"
#include "model/cost.hpp"
#include "model/demand.hpp"
#include "model/facility.hpp"
#include "model/federation.hpp"
#include "model/location_space.hpp"
#include "model/utility.hpp"
#include "model/value.hpp"
#include "cost_reference.hpp"
#include "pool_reference.hpp"
#include "game_reference.hpp"

namespace fedshare::model {
namespace {

using game::reference::coalition_of;

TEST(ThresholdUtility, MatchesEquationOne) {
  const ThresholdUtility u(50.0, 1.0);
  EXPECT_DOUBLE_EQ(u.value(49.0), 0.0);
  EXPECT_DOUBLE_EQ(u.value(50.0), 50.0);
  EXPECT_DOUBLE_EQ(u.value(200.0), 200.0);
}

TEST(ThresholdUtility, ShapesBelowAndAboveOne) {
  const ThresholdUtility concave(10.0, 0.5);
  const ThresholdUtility convex(10.0, 2.0);
  EXPECT_NEAR(concave.value(100.0), 10.0, 1e-12);
  EXPECT_NEAR(convex.value(100.0), 10000.0, 1e-9);
}

TEST(ThresholdUtility, ZeroThresholdStillZeroAtZero) {
  const ThresholdUtility u(0.0, 1.0);
  EXPECT_DOUBLE_EQ(u.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(u.value(1.0), 1.0);
}

TEST(ThresholdUtility, ValidatesDomain) {
  EXPECT_THROW(ThresholdUtility(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ThresholdUtility(1.0, 0.0), std::invalid_argument);
  const ThresholdUtility u(1.0, 1.0);
  EXPECT_THROW((void)u.value(-1.0), std::invalid_argument);
}

TEST(ThresholdUtility, DescribeMentionsParameters) {
  const ThresholdUtility u(50.0, 1.2);
  EXPECT_NE(u.describe().find("50"), std::string::npos);
  EXPECT_NE(u.describe().find("1.2"), std::string::npos);
}

TEST(Facility, WeightsAndValidation) {
  FacilityConfig cfg;
  cfg.name = "PLE";
  cfg.num_locations = 400;
  cfg.units_per_location = 60.0;
  cfg.availability = 0.5;
  const Facility f(1, cfg);
  EXPECT_DOUBLE_EQ(f.effective_units(), 30.0);
  EXPECT_DOUBLE_EQ(f.availability_weight(), 12000.0);
  cfg.availability = 1.5;
  EXPECT_THROW(Facility(0, cfg), std::invalid_argument);
  cfg.availability = 1.0;
  cfg.num_locations = -1;
  EXPECT_THROW(Facility(0, cfg), std::invalid_argument);
  EXPECT_THROW(Facility(-1, FacilityConfig{}), std::invalid_argument);
}

TEST(DemandProfile, FactoriesProduceValidClasses) {
  const auto single = DemandProfile::single_experiment(500.0);
  EXPECT_EQ(single.classes.size(), 1u);
  EXPECT_DOUBLE_EQ(single.classes[0].count, 1.0);

  const auto sat = DemandProfile::saturating(100.0);
  EXPECT_DOUBLE_EQ(sat.classes[0].count, kSaturatingCount);

  const auto multi = DemandProfile::uniform(40.0, 250.0);
  EXPECT_DOUBLE_EQ(multi.classes[0].count, 40.0);
}

TEST(DemandProfile, Archetypes) {
  EXPECT_DOUBLE_EQ(p2p_experiment().min_locations, 40.0);
  EXPECT_DOUBLE_EQ(p2p_experiment().holding_time, 0.1);
  EXPECT_DOUBLE_EQ(cdn_service().units_per_location, 4.0);
  EXPECT_DOUBLE_EQ(measurement_experiment().min_locations, 500.0);
  EXPECT_DOUBLE_EQ(measurement_experiment(3.0).count, 3.0);
}

TEST(CostModel, LinearCostAndNetValue) {
  CostModel cost;
  cost.alpha = 1.0;
  cost.beta = 2.0;
  cost.gamma = 10.0;
  cost.federation_fixed_cost = 5.0;
  const Facility f(0, {"A", 10, 3.0, 1.0});
  EXPECT_DOUBLE_EQ(reference::facility_cost(cost, f), 10.0 + 6.0 + 10.0);
  cost.alpha = -1.0;
  EXPECT_THROW((void)reference::facility_cost(cost, f), std::invalid_argument);
}

std::vector<FacilityConfig> three_configs() {
  return {{"F1", 100, 1.0, 1.0}, {"F2", 400, 1.0, 1.0},
          {"F3", 800, 1.0, 1.0}};
}

TEST(LocationSpace, DisjointLayoutCountsLocations) {
  const auto space = LocationSpace::disjoint(three_configs());
  EXPECT_EQ(space.num_facilities(), 3);
  EXPECT_EQ(space.num_locations(), 1300);
  EXPECT_EQ(space.distinct_locations(game::Coalition::grand(3)), 1300);
  EXPECT_EQ(space.distinct_locations(coalition_of({0, 1})), 500);
  EXPECT_DOUBLE_EQ(space.overlap(0, 1), 0.0);
}

// Everything a disjoint space answers, compared with another space bit
// for bit over every coalition.
void expect_same_space(const LocationSpace& got, const LocationSpace& want) {
  ASSERT_EQ(got.num_facilities(), want.num_facilities());
  EXPECT_EQ(got.num_locations(), want.num_locations());
  const int n = want.num_facilities();
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(got.locations_of(i), want.locations_of(i));
    EXPECT_EQ(got.facility(i).config().custom_units,
              want.facility(i).config().custom_units);
    EXPECT_EQ(got.facility(i).availability_weight(),
              want.facility(i).availability_weight());
  }
  const DemandProfile demand = DemandProfile::uniform(3.0, 4.0);
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    const auto c = game::Coalition::from_bits(mask);
    EXPECT_EQ(got.pool_for(c).capacity, want.pool_for(c).capacity);
    EXPECT_EQ(got.pooled_location_ids(c), want.pooled_location_ids(c));
    EXPECT_EQ(got.distinct_locations(c), want.distinct_locations(c));
    const auto a = got.capacity_histogram(c).bins;
    const auto b = want.capacity_histogram(c).bins;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].capacity, b[k].capacity);
      EXPECT_EQ(a[k].count, b[k].count);
    }
    EXPECT_EQ(coalition_value(got, demand, c),
              coalition_value(want, demand, c));
  }
  EXPECT_EQ(consumption_weights(got, demand),
            consumption_weights(want, demand));
}

// Replacing one facility in place leaves the space a disjoint() build
// of the changed config list gives: fewer, custom, no, or more
// locations, and back.
TEST(LocationSpace, ReplaceFacilityEqualsADisjointRebuild) {
  std::vector<FacilityConfig> configs = {
      {"A", 3, 2.0, 0.9}, {"B", 2, 1.5, 0.8}, {"C", 4, 1.0, 1.0}};
  auto space = LocationSpace::disjoint(configs);
  const auto outage = [](const FacilityConfig& nominal,
                         std::vector<double> units) {
    FacilityConfig cfg{nominal.name, static_cast<int>(units.size()),
                       nominal.units_per_location, 1.0};
    cfg.custom_units = std::move(units);
    return cfg;
  };
  const std::vector<std::pair<int, FacilityConfig>> steps = {
      {1, outage(configs[1], {1.5})},
      {1, outage(configs[1], {})},
      {0, outage(configs[0], {2.0, 2.0, 2.0})},
      {1, configs[1]},
      {2, {"C", 6, 1.0, 1.0}},
      {0, configs[0]},
  };
  for (const auto& [id, config] : steps) {
    SCOPED_TRACE(config.name + " with " +
                 std::to_string(config.num_locations) + " locations");
    space.replace_facility(id, config);
    configs[static_cast<std::size_t>(id)] = config;
    expect_same_space(space, LocationSpace::disjoint(configs));
  }
}

TEST(LocationSpace, ReplaceFacilityRejectsOverlapAndBadConfigs) {
  auto overlapping = LocationSpace::overlapping(
      {{"A", 3, 2.0, 1.0}, {"B", 3, 5.0, 1.0}}, 3, 9);
  EXPECT_THROW(overlapping.replace_facility(0, {"A", 2, 2.0, 1.0}),
               std::logic_error);
  auto space = LocationSpace::disjoint(three_configs());
  EXPECT_THROW(space.replace_facility(3, {"D", 1, 1.0, 1.0}),
               std::out_of_range);
  EXPECT_THROW(space.replace_facility(1, {"B", 2, 1.0, 0.0}),
               std::invalid_argument);
  expect_same_space(space, LocationSpace::disjoint(three_configs()));
}

TEST(LocationSpace, OverlappingLayoutIsDeterministicAndOverlaps) {
  auto configs = three_configs();
  const auto a = LocationSpace::overlapping(configs, 1000, 42);
  const auto b = LocationSpace::overlapping(configs, 1000, 42);
  EXPECT_EQ(a.locations_of(2), b.locations_of(2));
  // With L2 = 400 and L3 = 800 from a universe of 1000, overlap is
  // unavoidable (400 + 800 > 1000).
  EXPECT_GT(a.overlap(1, 2), 0.0);
  EXPECT_LT(a.distinct_locations(game::Coalition::grand(3)), 1300);
  const auto c = LocationSpace::overlapping(configs, 1000, 43);
  EXPECT_NE(a.locations_of(2), c.locations_of(2));
}

TEST(LocationSpace, OverlappingRejectsSmallUniverse) {
  EXPECT_THROW(LocationSpace::overlapping(three_configs(), 500, 1),
               std::invalid_argument);
}

TEST(LocationSpace, PoolSumsCoLocatedCapacity) {
  // Two facilities, both on the full universe of 3 locations.
  std::vector<FacilityConfig> configs{{"A", 3, 2.0, 1.0},
                                      {"B", 3, 5.0, 1.0}};
  const auto space = LocationSpace::overlapping(configs, 3, 9);
  const auto pool = space.pool_for(game::Coalition::grand(2));
  ASSERT_EQ(pool.num_locations(), 3u);
  for (const double c : pool.capacity) EXPECT_DOUBLE_EQ(c, 7.0);
}

TEST(LocationSpace, CapacityHistogramCountsLocationsByCapacity) {
  // Disjoint: one bin per distinct capacity, equal capacities merged.
  const auto disjoint = LocationSpace::disjoint(
      {{"A", 3, 2.0, 1.0}, {"B", 2, 2.0, 1.0}, {"C", 4, 1.0, 0.5}});
  const auto grand = disjoint.capacity_histogram(game::Coalition::grand(3));
  ASSERT_EQ(grand.bins.size(), 2u);
  EXPECT_EQ(grand.bins[0].capacity, 0.5);
  EXPECT_EQ(grand.bins[0].count, 4u);
  EXPECT_EQ(grand.bins[1].capacity, 2.0);
  EXPECT_EQ(grand.bins[1].count, 5u);
  std::size_t located = 0;
  for (const auto& bin :
       disjoint.capacity_histogram(coalition_of({0, 2}))
           .bins) {
    located += bin.count;
  }
  EXPECT_EQ(located, 7u);
  // Overlapping: co-located capacities add, as in pool_for.
  const auto shared = LocationSpace::overlapping(
      {{"A", 3, 2.0, 1.0}, {"B", 3, 5.0, 1.0}}, 3, 9);
  const auto both = shared.capacity_histogram(game::Coalition::grand(2));
  ASSERT_EQ(both.bins.size(), 1u);
  EXPECT_EQ(both.bins[0].capacity, 7.0);
  EXPECT_EQ(both.bins[0].count, 3u);
  EXPECT_EQ(shared.distinct_locations(game::Coalition::single(1)), 3);
}

TEST(LocationSpace, CapacityHistogramMatchesThePoolWhenRangesMix) {
  // Small facilities in a wide universe: some facilities' id ranges meet
  // no other range (one type each), others share locations or have
  // custom units (grouped per location). Both kinds must sum capacities
  // exactly as pool_for does.
  FacilityConfig custom{"D", 2, 1.0, 0.9};
  custom.custom_units = {0.5, 3.0};
  const std::vector<FacilityConfig> configs = {
      {"A", 1, 2.0, 1.0}, {"B", 2, 1.5, 0.5}, {"C", 3, 1.0, 1.0}, custom};
  int mixed = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto space = LocationSpace::overlapping(configs, 12, seed);
    int isolated = 0;
    for (int i = 0; i < 3; ++i) {
      bool meets = false;
      for (int j = 0; j < 4; ++j) {
        const auto& a = space.locations_of(i);
        const auto& b = space.locations_of(j);
        meets = meets || (j != i && a.front() <= b.back() &&
                          b.front() <= a.back());
      }
      if (!meets) ++isolated;
    }
    if (isolated > 0 && isolated < 3) ++mixed;
    for (std::uint64_t mask = 1; mask < 16; ++mask) {
      const auto coalition = game::Coalition::from_bits(mask);
      const auto pool = space.pool_for(coalition);
      const auto histogram = space.capacity_histogram(coalition);
      const auto of_pool = alloc::reference::histogram_of(pool);
      ASSERT_EQ(histogram.bins.size(), of_pool.bins.size())
          << "seed " << seed << " mask " << mask;
      for (std::size_t b = 0; b < of_pool.bins.size(); ++b) {
        EXPECT_EQ(histogram.bins[b].capacity, of_pool.bins[b].capacity);
        EXPECT_EQ(histogram.bins[b].count, of_pool.bins[b].count);
      }
      EXPECT_EQ(static_cast<std::size_t>(space.distinct_locations(coalition)),
                pool.num_locations());
    }
  }
  EXPECT_GT(mixed, 0);
}

TEST(Facility, HeterogeneousUnitsPerLocation) {
  FacilityConfig cfg;
  cfg.name = "het";
  cfg.num_locations = 3;
  cfg.custom_units = {4.0, 2.0, 6.0};
  cfg.availability = 0.5;
  const Facility f(0, cfg);
  EXPECT_DOUBLE_EQ(f.effective_units_at(0), 2.0);
  EXPECT_DOUBLE_EQ(f.effective_units_at(2), 3.0);
  EXPECT_DOUBLE_EQ(f.availability_weight(), 6.0);  // 12 * 0.5
  EXPECT_DOUBLE_EQ(f.effective_units(), 2.0);      // mean
  EXPECT_THROW((void)f.effective_units_at(3), std::out_of_range);
  cfg.custom_units = {1.0};
  EXPECT_THROW(Facility(0, cfg), std::invalid_argument);
  cfg.custom_units = {1.0, -1.0, 2.0};
  EXPECT_THROW(Facility(0, cfg), std::invalid_argument);
}

TEST(LocationSpace, HeterogeneousPoolUsesPerLocationUnits) {
  FacilityConfig cfg;
  cfg.name = "het";
  cfg.num_locations = 3;
  cfg.custom_units = {4.0, 2.0, 6.0};
  const auto space = LocationSpace::disjoint({cfg});
  const auto pool = space.pool_for(game::Coalition::single(0));
  ASSERT_EQ(pool.num_locations(), 3u);
  EXPECT_DOUBLE_EQ(pool.capacity[0], 4.0);
  EXPECT_DOUBLE_EQ(pool.capacity[1], 2.0);
  EXPECT_DOUBLE_EQ(pool.capacity[2], 6.0);
}

TEST(LocationSpace, AvailabilityScalesPool) {
  std::vector<FacilityConfig> configs{{"A", 2, 10.0, 0.5}};
  const auto space = LocationSpace::disjoint(configs);
  const auto pool = space.pool_for(game::Coalition::single(0));
  for (const double c : pool.capacity) EXPECT_DOUBLE_EQ(c, 5.0);
}

TEST(CoalitionValue, SingleExperimentMatchesClosedForm) {
  // Sec. 4.1: V(S) = u(sum of L_i) with threshold l = 500.
  const auto space = LocationSpace::disjoint(three_configs());
  const auto demand = DemandProfile::single_experiment(500.0);
  EXPECT_DOUBLE_EQ(coalition_value(space, demand, game::Coalition::single(0)),
                   0.0);
  EXPECT_DOUBLE_EQ(coalition_value(space, demand, game::Coalition::single(2)),
                   800.0);
  EXPECT_DOUBLE_EQ(
      coalition_value(space, demand, coalition_of({0, 1})), 500.0);
  EXPECT_DOUBLE_EQ(
      coalition_value(space, demand, coalition_of({1, 2})), 1200.0);
  EXPECT_DOUBLE_EQ(
      coalition_value(space, demand, game::Coalition::grand(3)), 1300.0);
  EXPECT_DOUBLE_EQ(coalition_value(space, demand, game::Coalition()), 0.0);
}

TEST(CoalitionValue, SaturatingDemandEqualsCapacityWhenDiverse) {
  // Fig. 6 reading: V(S) = total units if the coalition covers >= l
  // distinct locations, else 0.
  const auto configs = std::vector<FacilityConfig>{
      {"F1", 100, 80.0, 1.0}, {"F2", 400, 20.0, 1.0}, {"F3", 800, 10.0, 1.0}};
  const auto space = LocationSpace::disjoint(configs);
  const auto demand = DemandProfile::saturating(600.0);
  // {F3}: 800 locations >= 600 -> all 8000 units.
  EXPECT_NEAR(coalition_value(space, demand, game::Coalition::single(2)),
              8000.0, 1e-6);
  // {F1}: 100 locations < 600 -> 0.
  EXPECT_DOUBLE_EQ(coalition_value(space, demand, game::Coalition::single(0)),
                   0.0);
  // {F1, F2}: 500 < 600 -> 0.
  EXPECT_DOUBLE_EQ(
      coalition_value(space, demand, coalition_of({0, 1})), 0.0);
  // Grand: 1300 >= 600, but the distinct-location requirement caps the
  // number of co-schedulable experiments: U(m) = 100*min(80,m) +
  // 400*min(20,m) + 800*min(10,m) >= 600m holds up to m* = 32, so
  // V = U(32) = 19200 < 24000 (diversity-constrained packing).
  EXPECT_NEAR(coalition_value(space, demand, game::Coalition::grand(3)),
              19200.0, 1e-4);
  // {F2, F3} can still drain its full 16000 units (m* = 26.7 > 20).
  EXPECT_NEAR(coalition_value(space, demand, coalition_of({1, 2})),
              16000.0, 1e-4);
}

TEST(Federation, BuildGameAndWeights) {
  Federation fed(LocationSpace::disjoint(three_configs()),
                 DemandProfile::single_experiment(500.0));
  const auto g = fed.build_game();
  EXPECT_EQ(g.num_players(), 3);
  EXPECT_DOUBLE_EQ(g.grand_value(), 1300.0);
  const auto weights = fed.availability_weights();
  EXPECT_DOUBLE_EQ(weights[0], 100.0);
  EXPECT_DOUBLE_EQ(weights[2], 800.0);
}

TEST(Federation, ConsumptionWeightsTrackDemand) {
  // Low demand (K = 1 experiment, threshold 0): consumption spreads one
  // unit per location -> proportional to L_i, not L_i * R_i.
  const auto configs = std::vector<FacilityConfig>{
      {"F1", 100, 80.0, 1.0}, {"F2", 400, 60.0, 1.0}, {"F3", 800, 20.0, 1.0}};
  Federation fed(LocationSpace::disjoint(configs),
                 DemandProfile::single_experiment(0.0));
  const auto consumed = fed.consumption_weights();
  EXPECT_NEAR(consumed[0], 100.0, 1e-6);
  EXPECT_NEAR(consumed[1], 400.0, 1e-6);
  EXPECT_NEAR(consumed[2], 800.0, 1e-6);
}

TEST(NetValueGame, SubtractsCostsPerCoalition) {
  const auto space = LocationSpace::disjoint(three_configs());
  Federation fed(space, DemandProfile::single_experiment(500.0));
  const auto gross = fed.build_game();
  CostModel cost;
  cost.alpha = 0.1;
  cost.federation_fixed_cost = 30.0;
  const auto net = reference::net_value_game(gross, space.facilities(), cost);
  // V_net({F3}) = 800 - 0.1*800 - 30.
  EXPECT_NEAR(net.value(game::Coalition::single(2)), 800.0 - 80.0 - 30.0,
              1e-9);
  EXPECT_DOUBLE_EQ(net.value(game::Coalition()), 0.0);
}

TEST(NetValueGame, PaperClaimCostsShiftShapleyAdditively) {
  // Sec. 2.3.2: costs do not change the relative solution — exactly,
  // phi_i(V_net) = phi_i(V) - c_i - c_F / n by Shapley additivity.
  const auto space = LocationSpace::disjoint(three_configs());
  Federation fed(space, DemandProfile::single_experiment(500.0));
  const auto gross = fed.build_game();
  CostModel cost;
  cost.alpha = 0.05;
  cost.beta = 2.0;
  cost.gamma = 10.0;
  cost.federation_fixed_cost = 60.0;
  const auto net = reference::net_value_game(gross, space.facilities(), cost);
  const auto phi_gross = game::shapley_exact(gross);
  const auto phi_net = game::shapley_exact(net);
  for (int i = 0; i < 3; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    EXPECT_NEAR(phi_net[ui],
                phi_gross[ui] -
                    reference::facility_cost(cost, space.facility(i)) -
                    cost.federation_fixed_cost / 3.0,
                1e-9)
        << "facility " << i;
  }
}

TEST(NetValueGame, Validates) {
  const auto space = LocationSpace::disjoint(three_configs());
  Federation fed(space, DemandProfile::single_experiment(0.0));
  const auto gross = fed.build_game();
  EXPECT_THROW((void)reference::net_value_game(gross, {}, CostModel{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fedshare::model
