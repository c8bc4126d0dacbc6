#include "attribution_reference.hpp"

#include <stdexcept>

#include "pool_reference.hpp"

namespace fedshare::model::reference {

alloc::AllocationResult coalition_allocation(const LocationSpace& space,
                                             const DemandProfile& demand,
                                             game::Coalition coalition) {
  demand.validate();
  const alloc::LocationPool pool = space.pool_for(coalition);
  return alloc::reference::pool_greedy(pool, demand.classes);
}

std::vector<double> attribute_consumption(
    const LocationSpace& space, game::Coalition coalition,
    const std::vector<double>& units_per_location) {
  const std::vector<int> ids = space.pooled_location_ids(coalition);
  if (units_per_location.size() != ids.size()) {
    throw std::invalid_argument(
        "attribute_consumption: consumption vector does not match the "
        "coalition's pool");
  }
  std::vector<double> consumed(
      static_cast<std::size_t>(space.num_facilities()), 0.0);
  // Pool index of each covered location id.
  std::vector<std::size_t> rank(static_cast<std::size_t>(space.num_locations()),
                                0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    rank[static_cast<std::size_t>(ids[i])] = i;
  }
  std::vector<double> total_cap(ids.size(), 0.0);
  for (const int member : coalition.members()) {
    const Facility& f = space.facility(member);
    const auto& locs = space.locations_of(member);
    for (std::size_t k = 0; k < locs.size(); ++k) {
      total_cap[rank[static_cast<std::size_t>(locs[k])]] +=
          f.effective_units_at(static_cast<int>(k));
    }
  }
  for (const int member : coalition.members()) {
    const Facility& f = space.facility(member);
    const auto& locs = space.locations_of(member);
    for (std::size_t k = 0; k < locs.size(); ++k) {
      const std::size_t idx = rank[static_cast<std::size_t>(locs[k])];
      if (total_cap[idx] > 0.0) {
        consumed[static_cast<std::size_t>(member)] +=
            units_per_location[idx] *
            f.effective_units_at(static_cast<int>(k)) / total_cap[idx];
      }
    }
  }
  return consumed;
}

std::vector<double> consumption_weights(const LocationSpace& space,
                                        const DemandProfile& demand) {
  const game::Coalition grand =
      game::Coalition::grand(space.num_facilities());
  return attribute_consumption(
      space, grand,
      coalition_allocation(space, demand, grand).units_per_location);
}

}  // namespace fedshare::model::reference
