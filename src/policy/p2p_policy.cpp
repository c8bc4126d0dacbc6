#include "policy/p2p_policy.hpp"

#include <algorithm>
#include <stdexcept>

#include "alloc/greedy.hpp"

namespace fedshare::policy {

P2PFederationResult p2p_value_sharing(
    const model::LocationSpace& space,
    const std::vector<model::RequestClass>& facility_demands) {
  const int n = space.num_facilities();
  if (facility_demands.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument(
        "p2p_value_sharing: one demand class per facility required");
  }
  if (n == 0) {
    P2PFederationResult empty;
    empty.feasible = true;
    return empty;
  }
  const double r = facility_demands.front().units_per_location;
  for (const auto& d : facility_demands) {
    d.validate();
    if (d.units_per_location != r) {
      throw std::invalid_argument(
          "p2p_value_sharing: all facility demands must share "
          "units_per_location");
    }
  }

  const game::Coalition grand = game::Coalition::grand(n);
  const auto pooled = space.capacity_histogram(grand);

  // Slot budget: how many location-slots the pooled infrastructure can
  // host at r units each, capped per location by the total number of
  // user experiments (an experiment uses a location once).
  double total_demand = 0.0;
  for (const auto& d : facility_demands) total_demand += d.count;
  const double budget =
      alloc::slot_budget(pooled, r, std::max(total_demand, 1.0));

  // IR reference: each facility's own slot budget when acting alone.
  std::vector<double> standalone(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    standalone[static_cast<std::size_t>(i)] = alloc::slot_budget(
        space.capacity_histogram(game::Coalition::single(i)), r,
        std::max(facility_demands[static_cast<std::size_t>(i)].count, 1.0));
  }

  const alloc::P2PResult inner =
      alloc::allocate_p2p(budget, facility_demands, standalone);

  P2PFederationResult out;
  out.feasible = inner.feasible;
  out.slots = inner.slots;
  out.utilities = inner.utilities;
  out.shares = inner.shares;
  out.total_utility = inner.total_utility;

  // Commercial benchmark: the same split machinery with the IR floors
  // removed (standalone = 0), so the gap isolates what the constraints
  // cost rather than differences between allocators.
  const alloc::P2PResult unconstrained = alloc::allocate_p2p(
      budget, facility_demands,
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
  out.commercial_optimum = unconstrained.total_utility;
  out.incentive_cost =
      std::max(0.0, out.commercial_optimum - out.total_utility);
  return out;
}

}  // namespace fedshare::policy
