// Reference attribution: the per-location consumption weights that
// model::consumption_weights replaced with its attribution by location
// type. It allocates on the coalition's per-location pool
// (LocationSpace::pool_for) and splits each location's consumed units
// across the facilities there, pro-rata to their capacity, walking every
// member's locations. Kept out of the library as the oracle of the
// differential suite in tests/test_consumption.cpp: the type path must
// match it bitwise on spaces whose types are all isolated and within
// 1e-12 relative elsewhere.
#pragma once

#include <vector>

#include "alloc/allocation.hpp"
#include "core/coalition.hpp"
#include "model/demand.hpp"
#include "model/location_space.hpp"

namespace fedshare::model::reference {

/// Full allocation outcome for a coalition facing `demand`, run on the
/// coalition's per-location pool.
[[nodiscard]] alloc::AllocationResult coalition_allocation(
    const LocationSpace& space, const DemandProfile& demand,
    game::Coalition coalition);

/// Splits an allocation's per-location consumed units (aligned with
/// space.pool_for(coalition)) across facilities, pro-rata to each
/// facility's capacity at that location. Returns consumed units per
/// facility (all facilities; non-members get 0).
[[nodiscard]] std::vector<double> attribute_consumption(
    const LocationSpace& space, game::Coalition coalition,
    const std::vector<double>& units_per_location);

/// attribute_consumption of the grand coalition's coalition_allocation.
[[nodiscard]] std::vector<double> consumption_weights(
    const LocationSpace& space, const DemandProfile& demand);

}  // namespace fedshare::model::reference
