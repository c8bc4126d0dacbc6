#include "model/value.hpp"

#include "alloc/greedy.hpp"

namespace fedshare::model {

double coalition_value(const LocationSpace& space, const DemandProfile& demand,
                       game::Coalition coalition) {
  if (coalition.empty()) return 0.0;
  alloc::CapacityHistogram& histogram = alloc::scratch_histogram();
  space.capacity_histogram_into(coalition, histogram);
  return alloc::greedy_total_utility(histogram, demand.classes);
}

std::vector<double> consumption_weights(const LocationSpace& space,
                                        const DemandProfile& demand) {
  demand.validate();
  const game::Coalition grand =
      game::Coalition::grand(space.num_facilities());
  std::vector<alloc::ConsumedRun> runs;
  (void)alloc::allocate_greedy(space.capacity_histogram(grand),
                               demand.classes, runs);
  return space.attribute_runs(grand, runs);
}

namespace {

bool same_facility_config(const FacilityConfig& a, const FacilityConfig& b) {
  return a.num_locations == b.num_locations &&
         a.units_per_location == b.units_per_location &&
         a.availability == b.availability && a.custom_units == b.custom_units;
}

}  // namespace

game::PlayerPartition config_symmetry_partition(const LocationSpace& space) {
  const int n = space.num_facilities();
  // Disjointness gate: grouping is only sound when no two facilities
  // share a location (then swapping equal-config members permutes the
  // pooled capacity vector without changing its multiset).
  std::size_t own_locations = 0;
  for (int i = 0; i < n; ++i) {
    own_locations += space.locations_of(i).size();
  }
  if (n > 0 &&
      static_cast<std::size_t>(
          space.distinct_locations(game::Coalition::grand(n))) !=
          own_locations) {
    return game::PlayerPartition::identity(n);
  }
  std::vector<int> type_of(static_cast<std::size_t>(n), 0);
  std::vector<int> anchors;  // first facility of each type
  for (int i = 0; i < n; ++i) {
    int label = -1;
    for (std::size_t t = 0; t < anchors.size(); ++t) {
      if (same_facility_config(space.facility(i).config(),
                               space.facility(anchors[t]).config())) {
        label = static_cast<int>(t);
        break;
      }
    }
    if (label < 0) {
      label = static_cast<int>(anchors.size());
      anchors.push_back(i);
    }
    type_of[static_cast<std::size_t>(i)] = label;
  }
  return game::PlayerPartition::from_type_of(type_of);
}

}  // namespace fedshare::model
