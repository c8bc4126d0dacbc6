// Reference greedy: the per-location two-phase water-filling allocator
// that alloc::allocate_greedy replaced with its histogram core. It walks
// every location in every phase, re-sorting the whole pool for each
// class's best-fit reservation, and breaks ties by the same state order
// (remaining, original capacity, per-class use in priority order). It
// uses no library allocation code: U(m) is a plain per-location sum and
// m* is solved on the segment between two slot values where U(m) falls
// below m * threshold, with U evaluated at both ends. (The per-location
// greedy bisected for m*; where U(m) = m * threshold along a whole
// segment, rounding decided each comparison and the bisection could stop
// short of the root, so it is no oracle.) Kept out of
// the library as the oracle of the differential suite in
// tests/test_alloc_property.cpp, which requires the histogram core to
// match it within 1e-12 * max(1, |V|).
#pragma once

#include <vector>

#include "alloc/allocation.hpp"

namespace fedshare::alloc::reference {

/// U(m) = sum_l min(capacities_l / units_per_location, m).
[[nodiscard]] double slot_budget(const std::vector<double>& capacities,
                                 double units_per_location, double m);

/// Largest m with U(m) >= m * threshold (0 when U(1) < threshold).
[[nodiscard]] double max_feasible_experiments(
    const std::vector<double>& capacities, double units_per_location,
    double threshold);

/// Per-location greedy allocation of `classes` on `pool`.
[[nodiscard]] AllocationResult per_location_greedy(
    const LocationPool& pool, const std::vector<RequestClass>& classes);

}  // namespace fedshare::alloc::reference
