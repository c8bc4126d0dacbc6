// The coalition-value engine: V(S) from first principles.
//
// Pools the coalition's locations, runs the resource allocator against
// the demand profile, and reports the attained total utility (the
// commercial-scenario profit, P = V = sum_k u_k(x_k), Sec. 4). The
// closed-form values the paper derives for its examples (Sec. 4.1) are
// asserted against this engine in tests — the engine never hard-codes
// them.
#pragma once

#include <vector>

#include "core/coalition.hpp"
#include "core/symmetry.hpp"
#include "model/demand.hpp"
#include "model/location_space.hpp"

namespace fedshare::model {

/// V(S): total utility the coalition can generate (0 for the empty
/// coalition). Runs the greedy on the coalition's capacity histogram,
/// which depends only on the capacity multiset of pool_for(coalition).
/// The histogram and the outcomes live in the greedy's per-thread
/// scratch, so a warm call allocates nothing.
[[nodiscard]] double coalition_value(const LocationSpace& space,
                                     const DemandProfile& demand,
                                     game::Coalition coalition);

/// Consumption weights for Eq. 7: units consumed from each facility's
/// resources under the grand coalition's optimal allocation. Runs the
/// greedy on the grand coalition's capacity histogram and attributes
/// its runs by location type (LocationSpace::attribute_runs), with no
/// per-location pool.
[[nodiscard]] std::vector<double> consumption_weights(
    const LocationSpace& space, const DemandProfile& demand);

/// Candidate player symmetry from the static configuration: facilities
/// are grouped into one type when their configs match exactly
/// (num_locations, units_per_location, availability, custom_units —
/// names are ignored) *and* the whole space is disjoint (every facility
/// on its own locations). Overlapping facilities are never grouped —
/// even with equal configs their neighbourhoods can differ — so the
/// identity partition is returned for overlapping spaces. The result is
/// a sound symmetry of both the greedy V(S) and its LP relaxation:
/// swapping two same-type facilities permutes pooled per-location
/// capacities without changing their multiset, and both depend on the
/// pool only through that multiset (the greedy's tie order is on
/// location state, not position; see alloc/greedy.hpp).
[[nodiscard]] game::PlayerPartition config_symmetry_partition(
    const LocationSpace& space);

}  // namespace fedshare::model
