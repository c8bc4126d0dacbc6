#include "policy/incentives.hpp"

#include <stdexcept>

#include "model/federation.hpp"

namespace fedshare::policy {

std::vector<IncentivePoint> provision_curve(
    std::vector<model::FacilityConfig> configs, int facility_index,
    const std::vector<int>& location_grid, const model::DemandProfile& demand,
    const SharingPolicy& policy) {
  if (facility_index < 0 ||
      facility_index >= static_cast<int>(configs.size())) {
    throw std::invalid_argument("provision_curve: bad facility index");
  }
  std::vector<IncentivePoint> curve;
  curve.reserve(location_grid.size());
  for (const int locations : location_grid) {
    if (locations < 0) {
      throw std::invalid_argument("provision_curve: negative location count");
    }
    configs[static_cast<std::size_t>(facility_index)].num_locations =
        locations;
    model::Federation fed(model::LocationSpace::disjoint(configs), demand);
    const std::vector<double> shares = policy.shares(fed);
    const double total =
        fed.value(game::Coalition::grand(fed.num_facilities()));
    IncentivePoint pt;
    pt.locations = locations;
    pt.share = shares[static_cast<std::size_t>(facility_index)];
    pt.payoff = pt.share * total;
    curve.push_back(pt);
  }
  return curve;
}

}  // namespace fedshare::policy
