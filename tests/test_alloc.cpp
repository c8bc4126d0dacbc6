// Tests for the allocation solvers: greedy water-filling, slot budgets,
// LP relaxation, and the reference exact enumerator
// (tests/exact_reference.hpp) on hand-checked instances.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "alloc/greedy.hpp"
#include "alloc/lp_relax.hpp"
#include "exact_reference.hpp"
#include "greedy_reference.hpp"
#include "pool_reference.hpp"
#include "sim/rng.hpp"

namespace fedshare::alloc {
namespace {

using reference::allocate_exact;
using reference::pool_greedy;

CapacityHistogram histogram_of(std::vector<double> capacities) {
  return reference::histogram_of(LocationPool{std::move(capacities)});
}

// m* through the allocator: a linear class (d = 1) with more experiments
// than any pool can hold is admitted up to the largest m with
// U(m) >= m * threshold. `threshold` must be >= 1.
double max_feasible_experiments(const CapacityHistogram& histogram,
                                double units_per_location, double threshold) {
  RequestClass rc;
  rc.count = 1e9;
  rc.min_locations = threshold;
  rc.units_per_location = units_per_location;
  return allocate_greedy(histogram, {rc}).per_class[0].served;
}

LocationPool uniform_pool(int locations, double capacity) {
  LocationPool pool;
  pool.capacity.assign(static_cast<std::size_t>(locations), capacity);
  return pool;
}

RequestClass make_class(double count, double min_locations, double r = 1.0,
                        double d = 1.0) {
  RequestClass rc;
  rc.count = count;
  rc.min_locations = min_locations;
  rc.units_per_location = r;
  rc.exponent = d;
  return rc;
}

TEST(SlotBudget, CapsPerLocationAtM) {
  // capacities (3, 1, 5), r = 1: U(2) = 2 + 1 + 2 = 5.
  EXPECT_DOUBLE_EQ(slot_budget(histogram_of({3, 1, 5}), 1.0, 2.0), 5.0);
  // r = 2 halves the slots: U(2) = 1.5 + 0.5 + 2 = 4.
  EXPECT_DOUBLE_EQ(slot_budget(histogram_of({3, 1, 5}), 2.0, 2.0), 4.0);
}

TEST(SlotBudget, RejectsBadUnits) {
  EXPECT_THROW((void)slot_budget(histogram_of({1.0}), 0.0, 1.0),
               std::invalid_argument);
}

TEST(MaxFeasibleExperiments, SingleExperimentNeedsThresholdLocations) {
  // 5 locations of capacity 1, threshold 6: infeasible.
  EXPECT_DOUBLE_EQ(
      max_feasible_experiments(histogram_of({1, 1, 1, 1, 1}), 1.0, 6.0), 0.0);
  // threshold 5: exactly one experiment.
  EXPECT_DOUBLE_EQ(
      max_feasible_experiments(histogram_of({1, 1, 1, 1, 1}), 1.0, 5.0), 1.0);
}

TEST(MaxFeasibleExperiments, GrowsWithCapacity) {
  // 10 locations x capacity 4, threshold 5: U(m) = 10*min(4, m); need
  // 10*min(4,m) >= 5m -> m <= 8.
  EXPECT_NEAR(max_feasible_experiments(CapacityHistogram{{{4.0, 10}}}, 1.0,
                                       5.0),
              8.0, 1e-6);
}

TEST(MaxFeasibleExperiments, SolvesTheBreakpointSegmentExactly) {
  // Capacities (1, 2, 4), threshold 2: U(m) = 1 + 2 + m on [2, 4], so
  // 3 + m = 2m gives m* = 3 with no search.
  EXPECT_EQ(max_feasible_experiments(histogram_of({1, 2, 4}), 1.0, 2.0), 3.0);
  // Past the last breakpoint U is flat: 8 locations x 2, threshold 4
  // gives m* = 16 / 4.
  EXPECT_EQ(max_feasible_experiments(CapacityHistogram{{{2.0, 8}}}, 1.0, 4.0),
            4.0);
  // Nine locations of at least 1.5 slots, threshold 9: U(m) = 9m up to
  // m = 1.5, so the need is met with nothing to spare along the whole
  // segment. A bisection on U(m) >= 9m meets rounding ties there and
  // stopped at 1.4909; the segment solve gives the root.
  EXPECT_EQ(max_feasible_experiments(
                histogram_of({4.25, 2.75, 4.5, 4.25, 2.75, 2.25, 4.25, 1.5,
                              2.0}),
                1.0, 9.0),
            1.5);
}

TEST(MaxFeasibleExperiments, IsTheUpperRootOfTheSlotBudget) {
  // Against the definition, with U(m) summed location by location: m* is
  // feasible, anything past it is not, and the reference's bisection
  // lands on it.
  sim::Xoshiro256 rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> caps(1 + rng.below(12));
    for (double& c : caps) c = 0.25 * static_cast<double>(rng.below(20));
    const double r =
        trial % 3 == 0 ? 0.5 : 1.0 + static_cast<double>(trial % 2);
    const double threshold = 1.0 + static_cast<double>(rng.below(9)) +
                             (trial % 4 == 0 ? 0.5 : 0.0);
    const double m = max_feasible_experiments(histogram_of(caps), r, threshold);
    EXPECT_NEAR(m, reference::max_feasible_experiments(caps, r, threshold),
                1e-12 * std::max(1.0, m))
        << "trial " << trial;
    if (m == 0.0) {
      EXPECT_LT(reference::slot_budget(caps, r, 1.0), threshold);
      continue;
    }
    EXPECT_GE(m, 1.0);
    EXPECT_GE(reference::slot_budget(caps, r, m),
              m * threshold * (1.0 - 1e-12));
    const double past = m * (1.0 + 1e-9);
    EXPECT_LT(reference::slot_budget(caps, r, past), past * threshold);
  }
}

TEST(CapacityHistogram, CanonicalizeSortsMergesAndDropsEmptyBins) {
  CapacityHistogram h{{{3.0, 2}, {1.0, 1}, {2.0, 0}, {3.0, 4}}};
  h.canonicalize();
  ASSERT_EQ(h.bins.size(), 2u);
  EXPECT_EQ(h.bins[0].capacity, 1.0);
  EXPECT_EQ(h.bins[0].count, 1u);
  EXPECT_EQ(h.bins[1].capacity, 3.0);
  EXPECT_EQ(h.bins[1].count, 6u);
  EXPECT_THROW((void)reference::histogram_of(LocationPool{{1.0, -1.0}}),
               std::invalid_argument);
}

TEST(Greedy, HistogramInputMatchesThePoolBitwise) {
  const LocationPool pool{{2, 1, 3, 3, 1, 2, 2, 0.5}};
  const std::vector<RequestClass> classes = {make_class(3, 4),
                                             make_class(2, 2, 2.0, 0.5),
                                             make_class(1, 3, 1.0, 1.5)};
  const auto by_pool = pool_greedy(pool, classes);
  // Bin order does not matter either.
  const CapacityHistogram shuffled{{{3, 2}, {0.5, 1}, {1, 2}, {2, 3}}};
  const auto by_histogram = allocate_greedy(shuffled, classes);
  EXPECT_EQ(by_histogram.total_utility, by_pool.total_utility);
  EXPECT_EQ(by_histogram.total_units, by_pool.total_units);
  EXPECT_TRUE(by_histogram.units_per_location.empty());
  ASSERT_EQ(by_histogram.per_class.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(by_histogram.per_class[k].utility,
              by_pool.per_class[k].utility);
  }
  EXPECT_EQ(slot_budget(shuffled, 1.0, 2.0),
            slot_budget(reference::histogram_of(pool), 1.0, 2.0));
  EXPECT_EQ(slot_budget(shuffled, 1.0, 2.0),
            reference::slot_budget(pool.capacity, 1.0, 2.0));
}

TEST(Greedy, ConvexExperimentMeetingItsThresholdExactlyIsServed) {
  // Threshold 4, d = 2: experiment 1 uses all 5 locations (4.45 slots),
  // experiment 2 the four with at least 2 slots: exactly 4, which meets
  // the threshold, though U(2) - U(1) = 8.45 - 4.45 rounds below 4.
  const LocationPool pool{{0.45, 2.25, 2.7, 2.7, 2.7}};
  const auto result = pool_greedy(pool, {make_class(10, 4, 1.0, 2.0)});
  EXPECT_EQ(result.per_class[0].served, 2.0);
  EXPECT_NEAR(result.total_utility, 4.45 * 4.45 + 16.0, 1e-12);
  const auto want =
      reference::per_location_greedy(pool, {make_class(10, 4, 1.0, 2.0)});
  EXPECT_EQ(want.per_class[0].served, 2.0);
}

TEST(Greedy, LeftoverSlotsMeetingAThresholdExactlyAdmit) {
  // Capacities such as 0.9 * 3 and 0.9 * 0.5 are not exact in binary,
  // so after the earlier classes' takes the slots left for a later class
  // can meet its threshold exactly yet sum a few ulps short. Both pools
  // come from fuzzed spaces where the per-location reference admits.
  const std::vector<std::pair<LocationPool, std::vector<RequestClass>>>
      cases = {
          {LocationPool{{4.7, 2.7, 2.7, 2, 1, 3.2, 3, 3, 6.2, 3, 2, 3.7}},
           {make_class(3, 0, 2.0, 2.0), make_class(5, 8, 2.0, 0.8),
            make_class(5, 6, 0.5, 1.0)}},
          {LocationPool{{1, 0.5, 1, 3, 0, 2, 2.5, 0.5, 0.5, 0, 1.35, 0.45,
                         1.8, 0, 2.7, 2.25, 0, 0.9}},
           {make_class(2, 6, 0.5, 2.0), make_class(2, 1, 1.0, 1.0),
            make_class(3, 10, 0.5, 1.0)}},
      };
  for (const auto& [pool, classes] : cases) {
    const auto got = pool_greedy(pool, classes);
    const auto want = reference::per_location_greedy(pool, classes);
    for (std::size_t k = 0; k < classes.size(); ++k) {
      EXPECT_NEAR(got.per_class[k].served, want.per_class[k].served, 1e-12)
          << "class " << k;
      EXPECT_NEAR(got.per_class[k].utility, want.per_class[k].utility,
                  1e-12 * std::max(1.0, want.per_class[k].utility))
          << "class " << k;
    }
  }
}

TEST(Greedy, SingleExperimentTakesAllLocations) {
  const auto result =
      pool_greedy(uniform_pool(10, 1.0), {make_class(1, 5)});
  EXPECT_DOUBLE_EQ(result.total_utility, 10.0);  // d=1: utility = locations
  EXPECT_DOUBLE_EQ(result.per_class[0].served, 1.0);
  EXPECT_DOUBLE_EQ(result.per_class[0].locations_per_experiment, 10.0);
  EXPECT_DOUBLE_EQ(result.total_units, 10.0);
}

TEST(Greedy, BlocksBelowThreshold) {
  const auto result =
      pool_greedy(uniform_pool(4, 1.0), {make_class(1, 5)});
  EXPECT_DOUBLE_EQ(result.total_utility, 0.0);
  EXPECT_DOUBLE_EQ(result.per_class[0].served, 0.0);
}

TEST(Greedy, SaturatingDemandFillsCapacity) {
  // 6 locations x capacity 3, threshold 2, lots of experiments:
  // all 18 units get used (d = 1).
  const auto result =
      pool_greedy(uniform_pool(6, 3.0), {make_class(1000, 2)});
  EXPECT_NEAR(result.total_utility, 18.0, 1e-6);
  EXPECT_NEAR(result.total_units, 18.0, 1e-6);
}

TEST(Greedy, ThresholdLimitsServedCount) {
  // 4 locations x capacity 10, threshold 4: every experiment needs all 4
  // locations, so served = min(count, capacity per location) = 10.
  const auto result =
      pool_greedy(uniform_pool(4, 10.0), {make_class(100, 4)});
  EXPECT_NEAR(result.per_class[0].served, 10.0, 1e-6);
  EXPECT_NEAR(result.total_utility, 40.0, 1e-6);
}

TEST(Greedy, ConcaveUtilityUsesEqualSplit) {
  // d = 0.5, 2 experiments on 8 locations x 1: each gets 4 locations;
  // utility = 2 * sqrt(4) = 4.
  const auto result =
      pool_greedy(uniform_pool(8, 1.0), {make_class(2, 1, 1.0, 0.5)});
  EXPECT_NEAR(result.total_utility, 4.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].locations_per_experiment, 4.0, 1e-9);
}

TEST(Greedy, ConvexUtilityConcentrates) {
  // d = 2, 2 experiments on 4 locations x capacity 1: convex prefers one
  // experiment with all 4 (16) over two with 2 each (8). Threshold 1.
  const auto result =
      pool_greedy(uniform_pool(4, 1.0), {make_class(2, 1, 1.0, 2.0)});
  EXPECT_NEAR(result.total_utility, 16.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].served, 1.0, 1e-9);
}

TEST(Greedy, ConvexWithDeepCapacityServesSequentially) {
  // d = 2, capacity 2 per location: two experiments can both take all 4
  // locations -> utility 32.
  const auto result =
      pool_greedy(uniform_pool(4, 2.0), {make_class(2, 1, 1.0, 2.0)});
  EXPECT_NEAR(result.total_utility, 32.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].served, 2.0, 1e-9);
}

TEST(Greedy, HigherRUsesMoreUnits) {
  // r = 4 (the CDN archetype): one experiment on 6 locations x 4 units
  // uses 24 units for 6 locations of utility.
  const auto result =
      pool_greedy(uniform_pool(6, 4.0), {make_class(1, 2, 4.0)});
  EXPECT_NEAR(result.total_utility, 6.0, 1e-9);
  EXPECT_NEAR(result.total_units, 24.0, 1e-9);
}

TEST(Greedy, ClassPriorityCheapestUnitsFirst) {
  // Two classes compete for 4 locations x 2 units: the r=1 class (double
  // the utility per unit) is admitted first and absorbs everything.
  const auto result = pool_greedy(
      uniform_pool(4, 2.0),
      {make_class(1, 1, 2.0), make_class(8, 1, 1.0)});
  EXPECT_NEAR(result.per_class[1].served, 8.0, 1e-6);
  EXPECT_NEAR(result.per_class[1].units, 8.0, 1e-6);
  EXPECT_NEAR(result.per_class[0].served, 0.0, 1e-9);  // no capacity left
}

TEST(Greedy, MixedClassesShareCapacity) {
  // Saturating low-threshold class + blocked high-threshold class: only
  // the feasible class consumes.
  const auto result = pool_greedy(
      uniform_pool(5, 2.0),
      {make_class(100, 1), make_class(100, 10)});
  EXPECT_NEAR(result.per_class[0].units, 10.0, 1e-9);
  EXPECT_NEAR(result.per_class[1].served, 0.0, 1e-9);
}

TEST(Greedy, UnitsPerLocationTracksConsumption) {
  const auto result =
      pool_greedy(uniform_pool(3, 2.0), {make_class(2, 1)});
  ASSERT_EQ(result.units_per_location.size(), 3u);
  for (const double u : result.units_per_location) {
    EXPECT_NEAR(u, 2.0, 1e-9);
  }
}

TEST(Greedy, EmptyPoolYieldsZero) {
  const auto result = pool_greedy(LocationPool{}, {make_class(1, 1)});
  EXPECT_DOUBLE_EQ(result.total_utility, 0.0);
}

TEST(Greedy, ValidatesInputs) {
  LocationPool bad;
  bad.capacity = {-1.0};
  EXPECT_THROW((void)pool_greedy(bad, {}), std::invalid_argument);
  RequestClass rc;
  rc.count = -1.0;
  EXPECT_THROW((void)pool_greedy(uniform_pool(1, 1.0), {rc}),
               std::invalid_argument);
}

TEST(Exact, MatchesHandComputedInstance) {
  // 3 locations x 1 unit; 2 experiments with threshold 2:
  // only one can be served (3 units, each needs >= 2 distinct).
  // Optimal: one experiment with all 3 locations -> utility 3.
  const auto result =
      allocate_exact(uniform_pool(3, 1.0), {make_class(2, 2)});
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->total_utility, 3.0);
}

TEST(Exact, RespectsCapacity) {
  // 2 locations x 1 unit, 2 experiments threshold 1: each can take one
  // location (utility 1 + 1) or one takes both (utility 2). Equal either
  // way with d = 1.
  const auto result =
      allocate_exact(uniform_pool(2, 1.0), {make_class(2, 1)});
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->total_utility, 2.0);
}

TEST(Exact, ConvexPrefersConcentration) {
  const auto result =
      allocate_exact(uniform_pool(4, 1.0), {make_class(2, 1, 1.0, 2.0)});
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->total_utility, 16.0);
}

TEST(Exact, EnforcesLimits) {
  EXPECT_THROW((void)allocate_exact(uniform_pool(17, 1.0), {}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)allocate_exact(uniform_pool(2, 1.0), {make_class(9, 1)}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)allocate_exact(uniform_pool(2, 1.0), {make_class(1.5, 1)}),
      std::invalid_argument);
}

TEST(Exact, NodeBudgetReturnsNullopt) {
  const auto result = allocate_exact(uniform_pool(10, 2.0),
                                     {make_class(6, 1)}, /*max_nodes=*/100);
  EXPECT_FALSE(result.has_value());
}

// multiple_of_pow2 is the greedy's exact-step test; it must say what
// std::fmod(x, 2^e) == 0 says.
bool fmod_says(double x, int e) {
  return std::fmod(x, std::ldexp(1.0, e)) == 0.0;
}

void expect_agrees(double x, int e) {
  EXPECT_EQ(multiple_of_pow2(x, e), fmod_says(x, e))
      << std::hexfloat << "x = " << x << ", e = " << e;
}

// The exponent take_full tests against: that of need's ulp.
int ulp_exponent(double need) { return std::ilogb(need) - 52; }

TEST(MultipleOfPow2, ExactMultiplesAndOneUlpMisses) {
  const double odd[] = {1.0, 3.0, 5.0, 7.0, 1025.0, 0x1.fffffffffffffp52};
  for (int e = -1074; e <= 1000; e += 7) {
    for (const double k : odd) {
      const double x = std::ldexp(k, e);
      if (!std::isfinite(x) || x == 0.0) continue;
      for (const double y :
           {x, std::nextafter(x, 0.0), std::nextafter(x, HUGE_VAL)}) {
        for (const int at : {e - 1, e, e + 1}) {
          if (at < -1074 || at > 1023) continue;
          expect_agrees(y, at);
        }
      }
    }
  }
  EXPECT_TRUE(multiple_of_pow2(0.0, 10));
  EXPECT_TRUE(multiple_of_pow2(std::numeric_limits<double>::denorm_min(),
                               -1074));
  EXPECT_FALSE(multiple_of_pow2(std::numeric_limits<double>::denorm_min(),
                                -1073));
  EXPECT_TRUE(multiple_of_pow2(-6.0, 1));
  EXPECT_FALSE(multiple_of_pow2(0.85, -52));
}

TEST(MultipleOfPow2, NeedsNearTheEpsilonAndPastTwoToThe53) {
  const double needs[] = {1e-12,
                          std::nextafter(1e-12, 1.0),
                          1.5e-12,
                          3e-12,
                          std::ldexp(1.0, 53),
                          std::ldexp(1.0, 53) + 2.0,
                          std::ldexp(3.0, 60),
                          1e300};
  const double fulls[] = {0.85, 0.1, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0,
                          0.9 * 3, 1e-13, 1e-12, 3e-12, 1e15,
                          std::ldexp(1.0, 53), std::ldexp(1.0, 54) + 4.0,
                          std::ldexp(5.0, 70), 1e299};
  for (const double need : needs) {
    const int e = ulp_exponent(need);
    for (const double full : fulls) {
      expect_agrees(full, e);
      expect_agrees(std::nextafter(full, 0.0), e);
    }
    expect_agrees(need, e);
    expect_agrees(need / 3.0, e);
  }
}

TEST(MultipleOfPow2, RandomFractionalCapacities) {
  sim::Xoshiro256 rng(2026);
  for (int i = 0; i < 20000; ++i) {
    // A fractional capacity, sometimes rounded to a few binary places,
    // against the ulp of a need from 1e-12 to 2^60.
    double full = rng.uniform(0.01, 16.0);
    if (i % 3 == 0) full = std::ldexp(std::round(std::ldexp(full, 8)), -8);
    if (i % 5 == 0) full *= 0.85;
    const double need = std::exp(rng.uniform(std::log(1e-12), 60 * M_LN2));
    expect_agrees(full, ulp_exponent(need));
  }
}

TEST(LpRelax, BoundsGreedyFromAbove) {
  const LocationPool pool = uniform_pool(5, 2.0);
  const std::vector<RequestClass> classes{make_class(3, 2)};
  const double bound = lp_upper_bound(pool, classes);
  const auto greedy = pool_greedy(pool, classes);
  EXPECT_GE(bound + 1e-9, greedy.total_utility);
}

TEST(LpRelax, TightWhenThresholdsAreSlack) {
  // No binding thresholds, d = 1: LP bound equals greedy exactly.
  const LocationPool pool = uniform_pool(4, 3.0);
  const std::vector<RequestClass> classes{make_class(5, 1)};
  const double bound = lp_upper_bound(pool, classes);
  const auto greedy = pool_greedy(pool, classes);
  EXPECT_NEAR(bound, greedy.total_utility, 1e-6);
}

TEST(LpRelax, RejectsConvexExponents) {
  EXPECT_THROW(
      (void)lp_upper_bound(uniform_pool(2, 1.0), {make_class(1, 1, 1.0, 2.0)}),
      std::invalid_argument);
}

}  // namespace
}  // namespace fedshare::alloc
