// Property tests: the greedy allocator against the exact enumerator and
// the LP upper bound, over randomized small instances; its invariance
// under reordering the pool's locations; and the differential suite that
// holds the histogram core to the per-location reference greedy
// (tests/greedy_reference.hpp) on fuzzed location spaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "alloc/greedy.hpp"
#include "alloc/lp_relax.hpp"
#include "exact_reference.hpp"
#include "greedy_reference.hpp"
#include "model/location_space.hpp"
#include "model/value.hpp"
#include "pool_reference.hpp"
#include "sim/rng.hpp"

namespace fedshare::alloc {
namespace {

using reference::pool_greedy;

struct Instance {
  LocationPool pool;
  std::vector<RequestClass> classes;
};

// Random instance: <= 5 locations with small integer capacities,
// <= 4 experiments in <= 2 classes, r = 1, d = 1, integer thresholds.
Instance random_instance(std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  Instance inst;
  const int locations = 2 + static_cast<int>(rng.below(4));  // 2..5
  for (int l = 0; l < locations; ++l) {
    inst.pool.capacity.push_back(1.0 + static_cast<double>(rng.below(3)));
  }
  const int num_classes = 1 + static_cast<int>(rng.below(2));
  int experiments_left = 4;
  for (int c = 0; c < num_classes; ++c) {
    RequestClass rc;
    rc.count = 1.0 + static_cast<double>(
                         rng.below(static_cast<std::uint64_t>(
                             experiments_left > 1 ? experiments_left - 1 : 1)));
    experiments_left -= static_cast<int>(rc.count);
    rc.min_locations = 1.0 + static_cast<double>(rng.below(
                                 static_cast<std::uint64_t>(locations)));
    inst.classes.push_back(rc);
    if (experiments_left <= 0) break;
  }
  return inst;
}

class GreedyVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyVsExact, GreedyMatchesExactOnUnitResourceLinearInstances) {
  const Instance inst = random_instance(GetParam());
  // At most 5 locations and 4 experiments keep the search near 33^4
  // nodes, far inside its default cap: a seed that exhausts the cap
  // fails here rather than skipping.
  const auto exact = reference::allocate_exact(inst.pool, inst.classes);
  ASSERT_TRUE(exact.has_value())
      << "seed " << GetParam() << ": exact search hit its node cap";
  const auto greedy = pool_greedy(inst.pool, inst.classes);
  // Continuous relaxation can only help, so greedy >= exact. When the
  // relaxation happens to serve integral experiment counts it must agree
  // with the integer optimum exactly; a fractional count may legitimately
  // exceed it, by at most one partial experiment's utility (bounded by
  // the location count under d = 1).
  EXPECT_GE(greedy.total_utility, exact->total_utility - 1e-7);
  bool integral_served = true;
  for (const auto& oc : greedy.per_class) {
    if (std::abs(oc.served - std::round(oc.served)) > 1e-6) {
      integral_served = false;
    }
  }
  if (integral_served) {
    EXPECT_NEAR(greedy.total_utility, exact->total_utility, 1e-6)
        << "seed " << GetParam();
  }
  EXPECT_LE(greedy.total_utility,
            exact->total_utility +
                static_cast<double>(inst.pool.num_locations()) + 1e-6)
      << "seed " << GetParam();
}

TEST_P(GreedyVsExact, LpBoundDominatesBoth) {
  const Instance inst = random_instance(GetParam());
  const double bound = lp_upper_bound(inst.pool, inst.classes);
  const auto greedy = pool_greedy(inst.pool, inst.classes);
  EXPECT_GE(bound + 1e-6, greedy.total_utility) << "seed " << GetParam();
}

TEST_P(GreedyVsExact, ConsumptionNeverExceedsCapacity) {
  const Instance inst = random_instance(GetParam());
  const auto greedy = pool_greedy(inst.pool, inst.classes);
  ASSERT_EQ(greedy.units_per_location.size(), inst.pool.num_locations());
  for (std::size_t l = 0; l < inst.pool.num_locations(); ++l) {
    EXPECT_LE(greedy.units_per_location[l], inst.pool.capacity[l] + 1e-9);
  }
  double total = 0.0;
  for (const double u : greedy.units_per_location) total += u;
  EXPECT_NEAR(total, greedy.total_units, 1e-6);
}

TEST_P(GreedyVsExact, ServedExperimentsMeetTheirThreshold) {
  const Instance inst = random_instance(GetParam());
  const auto greedy = pool_greedy(inst.pool, inst.classes);
  for (std::size_t c = 0; c < inst.classes.size(); ++c) {
    const auto& oc = greedy.per_class[c];
    if (oc.served > 0.0) {
      EXPECT_GE(oc.locations_per_experiment + 1e-9,
                inst.classes[c].effective_threshold());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyVsExact,
                         ::testing::Range<std::uint64_t>(0, 60));

// Monotonicity properties of the greedy allocator over capacity growth.
class GreedyMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyMonotonicity, MoreCapacityNeverHurts) {
  const Instance inst = random_instance(GetParam());
  const auto base = pool_greedy(inst.pool, inst.classes);
  LocationPool bigger = inst.pool;
  for (double& c : bigger.capacity) c += 1.0;
  bigger.capacity.push_back(2.0);  // plus a fresh location
  const auto grown = pool_greedy(bigger, inst.classes);
  EXPECT_GE(grown.total_utility + 1e-9, base.total_utility)
      << "seed " << GetParam();
}

TEST_P(GreedyMonotonicity, MoreDemandNeverHurts) {
  const Instance inst = random_instance(GetParam());
  const auto base = pool_greedy(inst.pool, inst.classes);
  auto more = inst.classes;
  for (auto& rc : more) rc.count += 2.0;
  const auto grown = pool_greedy(inst.pool, more);
  EXPECT_GE(grown.total_utility + 1e-9, base.total_utility)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyMonotonicity,
                         ::testing::Range<std::uint64_t>(100, 140));

// ---------------------------------------------------------------------
// Location order. Phase 1 breaks best-fit ties by location state, so the
// allocation depends only on the capacity multiset.

RequestClass make_class(double count, double min_locations, double r,
                        double d) {
  RequestClass rc;
  rc.count = count;
  rc.min_locations = min_locations;
  rc.units_per_location = r;
  rc.exponent = d;
  return rc;
}

void expect_same_outcomes(const AllocationResult& a,
                          const AllocationResult& b) {
  EXPECT_EQ(a.total_utility, b.total_utility);
  EXPECT_EQ(a.total_units, b.total_units);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t k = 0; k < a.per_class.size(); ++k) {
    EXPECT_EQ(a.per_class[k].served, b.per_class[k].served);
    EXPECT_EQ(a.per_class[k].locations_per_experiment,
              b.per_class[k].locations_per_experiment);
    EXPECT_EQ(a.per_class[k].utility, b.per_class[k].utility);
    EXPECT_EQ(a.per_class[k].units, b.per_class[k].units);
  }
}

TEST(GreedyLocationOrder, TiedRemainingCapacityIgnoresPosition) {
  // After the l = 5 class reserves, locations of capacity 1 and 2 both
  // have 1 unit left; which of them the l = 2 class reserves from
  // decides what phase 2 can still fill. Ties broken by position gave
  // 8.0, 8.732 or 7.236 depending on the order of the same capacities.
  const std::vector<RequestClass> classes = {make_class(1, 5, 1, 1),
                                             make_class(1, 2, 1, 0.5)};
  std::vector<double> caps = {1, 1, 1, 1, 2, 2, 2};
  const AllocationResult first = pool_greedy(LocationPool{caps}, classes);
  EXPECT_NEAR(first.total_utility, 7.0 + std::sqrt(3.0), 1e-12);
  int orders = 0;
  while (std::next_permutation(caps.begin(), caps.end())) {
    expect_same_outcomes(pool_greedy(LocationPool{caps}, classes), first);
    ++orders;
  }
  EXPECT_EQ(orders, 34);
}

class GreedyLocationOrderProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyLocationOrderProperty, PermutingThePoolChangesNothing) {
  sim::Xoshiro256 rng(GetParam());
  LocationPool pool;
  const std::size_t locations = 2 + rng.below(11);
  for (std::size_t l = 0; l < locations; ++l) {
    // Few distinct capacities, so ties are the rule.
    pool.capacity.push_back(0.5 * static_cast<double>(1 + rng.below(6)));
  }
  std::vector<RequestClass> classes;
  const std::size_t num_classes = 1 + rng.below(3);
  for (std::size_t c = 0; c < num_classes; ++c) {
    const double d[] = {0.5, 1.0, 1.5};
    const double r[] = {0.5, 1.0, 1.0, 2.0};
    classes.push_back(make_class(static_cast<double>(1 + rng.below(4)),
                                 static_cast<double>(rng.below(7)),
                                 r[rng.below(4)], d[rng.below(3)]));
  }
  const AllocationResult base = pool_greedy(pool, classes);
  std::vector<double> base_units = base.units_per_location;
  std::sort(base_units.begin(), base_units.end());
  for (int shuffle = 0; shuffle < 8; ++shuffle) {
    LocationPool permuted = pool;
    for (std::size_t l = permuted.capacity.size(); l > 1; --l) {
      std::swap(permuted.capacity[l - 1], permuted.capacity[rng.below(l)]);
    }
    const AllocationResult moved = pool_greedy(permuted, classes);
    expect_same_outcomes(moved, base);
    std::vector<double> units = moved.units_per_location;
    std::sort(units.begin(), units.end());
    EXPECT_EQ(units, base_units) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyLocationOrderProperty,
                         ::testing::Range<std::uint64_t>(200, 260));

// ---------------------------------------------------------------------
// Differential suite: the histogram core (through both entry points)
// against the per-location reference greedy, on every coalition of
// fuzzed location spaces.

model::FacilityConfig random_facility(sim::Xoshiro256& rng, int i,
                                      bool custom) {
  model::FacilityConfig cfg;
  cfg.name = "F" + std::to_string(i);
  cfg.num_locations = 1 + static_cast<int>(rng.below(12));
  cfg.units_per_location = static_cast<double>(1 + rng.below(3));
  const double availability[] = {1.0, 1.0, 0.9, 0.5};
  cfg.availability = availability[rng.below(4)];
  if (custom) {
    for (int k = 0; k < cfg.num_locations; ++k) {
      cfg.custom_units.push_back(0.5 * static_cast<double>(rng.below(7)));
    }
  }
  return cfg;
}

model::LocationSpace random_space(sim::Xoshiro256& rng) {
  const int n = 1 + static_cast<int>(rng.below(5));
  const std::uint64_t kind = rng.below(4);  // disjoint, custom, overlap, ...
  std::vector<model::FacilityConfig> configs;
  int max_l = 0;
  for (int i = 0; i < n; ++i) {
    configs.push_back(random_facility(rng, i, kind == 1 || rng.below(4) == 0));
    max_l = std::max(max_l, configs.back().num_locations);
  }
  const bool overlap = kind == 2 || (kind == 3 && rng.below(2) == 0);
  model::LocationSpace space =
      overlap ? model::LocationSpace::overlapping(
                    configs, max_l + static_cast<int>(rng.below(8)),
                    rng.next())
              : model::LocationSpace::disjoint(configs);
  if (kind != 3) return space;
  // ... and outage masks on either layout.
  std::vector<std::vector<bool>> up;
  for (int i = 0; i < n; ++i) {
    std::vector<bool> mask;
    for (std::size_t k = 0; k < space.locations_of(i).size(); ++k) {
      mask.push_back(rng.below(3) != 0);
    }
    up.push_back(std::move(mask));
  }
  return space.with_outages(up);
}

std::vector<RequestClass> random_classes(sim::Xoshiro256& rng) {
  std::vector<RequestClass> classes;
  const std::size_t num_classes = 1 + rng.below(3);
  for (std::size_t c = 0; c < num_classes; ++c) {
    const double count[] = {1, 2, 3, 5, 1e9};
    const double r[] = {0.5, 1.0, 1.0, 2.0};
    const double d[] = {0.5, 0.8, 1.0, 1.0, 1.2, 2.0};
    classes.push_back(make_class(count[rng.below(5)],
                                 static_cast<double>(rng.below(12)),
                                 r[rng.below(4)], d[rng.below(6)]));
  }
  return classes;
}

void expect_near_outcomes(const AllocationResult& got,
                          const AllocationResult& want, const char* what) {
  const auto tol = [](double v) {
    return 1e-12 * std::max(1.0, std::abs(v));
  };
  EXPECT_NEAR(got.total_utility, want.total_utility,
              tol(want.total_utility))
      << what;
  EXPECT_NEAR(got.total_units, want.total_units, tol(want.total_units))
      << what;
  ASSERT_EQ(got.per_class.size(), want.per_class.size()) << what;
  for (std::size_t k = 0; k < want.per_class.size(); ++k) {
    const ClassOutcome& g = got.per_class[k];
    const ClassOutcome& w = want.per_class[k];
    EXPECT_NEAR(g.served, w.served, tol(w.served)) << what << " class " << k;
    EXPECT_NEAR(g.locations_per_experiment, w.locations_per_experiment,
                tol(w.locations_per_experiment))
        << what << " class " << k;
    EXPECT_NEAR(g.utility, w.utility, tol(w.utility))
        << what << " class " << k;
    EXPECT_NEAR(g.units, w.units, tol(w.units)) << what << " class " << k;
  }
}

class HistogramCoreDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramCoreDifferential, MatchesThePerLocationReference) {
  sim::Xoshiro256 rng(GetParam());
  const model::LocationSpace space = random_space(rng);
  model::DemandProfile demand;
  demand.classes = random_classes(rng);
  const int n = space.num_facilities();
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    const auto coalition = game::Coalition::from_bits(mask);
    const LocationPool pool = space.pool_for(coalition);
    const CapacityHistogram histogram = space.capacity_histogram(coalition);
    const CapacityHistogram of_pool = reference::histogram_of(pool);
    ASSERT_EQ(histogram.bins.size(), of_pool.bins.size()) << "mask " << mask;
    for (std::size_t b = 0; b < of_pool.bins.size(); ++b) {
      EXPECT_EQ(histogram.bins[b].capacity, of_pool.bins[b].capacity);
      EXPECT_EQ(histogram.bins[b].count, of_pool.bins[b].count);
    }
    EXPECT_EQ(static_cast<std::size_t>(space.distinct_locations(coalition)),
              pool.num_locations());

    const AllocationResult want =
        reference::per_location_greedy(pool, demand.classes);
    const AllocationResult by_location =
        pool_greedy(pool, demand.classes);
    const AllocationResult by_histogram =
        allocate_greedy(histogram, demand.classes);
    const std::string what = "seed " + std::to_string(GetParam()) +
                             " mask " + std::to_string(mask);
    expect_near_outcomes(by_location, want, what.c_str());
    ASSERT_EQ(by_location.units_per_location.size(),
              want.units_per_location.size());
    for (std::size_t l = 0; l < want.units_per_location.size(); ++l) {
      EXPECT_NEAR(by_location.units_per_location[l],
                  want.units_per_location[l],
                  1e-12 * std::max(1.0, std::abs(want.total_units)))
          << what << " location " << l;
    }
    // Both entry points run one core on one multiset: bitwise equal.
    expect_same_outcomes(by_histogram, by_location);
    EXPECT_TRUE(by_histogram.units_per_location.empty());
    EXPECT_EQ(model::coalition_value(space, demand, coalition),
              by_location.total_utility);
  }
}

INSTANTIATE_TEST_SUITE_P(FuzzedSpaces, HistogramCoreDifferential,
                         ::testing::Range<std::uint64_t>(0, 300));

}  // namespace
}  // namespace fedshare::alloc
