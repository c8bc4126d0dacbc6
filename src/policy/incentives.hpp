// Incentives for resource provision (the paper's Sec. 4.4 / Fig. 9).
//
// Sweeps one facility's contribution (its number of locations) and
// reports its payoff under a sharing policy, holding everything else
// fixed. The Shapley curve exhibits jumps at the coalition-threshold
// points; the proportional curve is smooth — the trade-off the paper
// highlights.
#pragma once

#include <vector>

#include "model/demand.hpp"
#include "model/facility.hpp"
#include "policy/policy.hpp"

namespace fedshare::policy {

/// One point of a provision-incentive curve.
struct IncentivePoint {
  int locations = 0;   ///< the swept facility's L
  double payoff = 0.0; ///< its payoff s_i * V(N)
  double share = 0.0;  ///< its share s_i
};

/// Sweeps facility `facility_index`'s location count over `location_grid`
/// (ascending), rebuilding the federation each time with disjoint
/// locations and `demand`, and evaluates `policy`.
[[nodiscard]] std::vector<IncentivePoint> provision_curve(
    std::vector<model::FacilityConfig> configs, int facility_index,
    const std::vector<int>& location_grid, const model::DemandProfile& demand,
    const SharingPolicy& policy);

}  // namespace fedshare::policy
