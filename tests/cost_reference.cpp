#include "cost_reference.hpp"

#include <stdexcept>

namespace fedshare::model::reference {

double facility_cost(const CostModel& cost, const Facility& facility) {
  cost.validate();
  return cost.alpha * facility.num_locations() +
         cost.beta * facility.units_per_location() +
         cost.gamma * facility.availability();
}

game::TabularGame net_value_game(const game::Game& gross,
                                 const std::vector<Facility>& facilities,
                                 const CostModel& cost) {
  cost.validate();
  const int n = gross.num_players();
  if (facilities.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument(
        "net_value_game: one facility per player required");
  }
  if (n > 24) {
    throw std::invalid_argument("net_value_game: n must be <= 24");
  }
  std::vector<double> member_cost;
  member_cost.reserve(facilities.size());
  for (const auto& f : facilities) {
    member_cost.push_back(facility_cost(cost, f));
  }
  std::vector<double> values = game::tabulate(gross).values();
  values[0] = 0.0;
  for (std::uint64_t mask = 1; mask < values.size(); ++mask) {
    double total_cost = cost.federation_fixed_cost;
    std::uint64_t b = mask;
    while (b != 0) {
      total_cost += member_cost[static_cast<std::size_t>(__builtin_ctzll(b))];
      b &= b - 1;
    }
    values[mask] -= total_cost;
  }
  return game::TabularGame(n, std::move(values));
}

}  // namespace fedshare::model::reference
