// Per-location pool front ends of the histogram greedy, kept out of the
// library: programs reach the greedy through
// model::LocationSpace::capacity_histogram, but the allocation tests
// state their instances as per-location pools.
//   * histogram_of reduces a pool to its canonical capacity histogram;
//   * pool_greedy runs alloc::allocate_greedy on a pool and maps the
//     consumed runs back to the pool's locations.
#pragma once

#include <vector>

#include "alloc/allocation.hpp"

namespace fedshare::alloc::reference {

/// The histogram of a per-location pool, in canonical form. Validates
/// the pool first.
[[nodiscard]] CapacityHistogram histogram_of(const LocationPool& pool);

/// alloc::allocate_greedy on `pool`, with units_per_location filled: the
/// pool's locations ordered by (capacity, index) form the histogram's
/// bin-by-bin numbering, so each consumed run maps back to them.
[[nodiscard]] AllocationResult pool_greedy(
    const LocationPool& pool, const std::vector<RequestClass>& classes);

}  // namespace fedshare::alloc::reference
