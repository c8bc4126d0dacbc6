#include "model/cost.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace fedshare::model {

double CostModel::facility_cost(const Facility& facility) const {
  validate();
  return alpha * facility.num_locations() +
         beta * facility.units_per_location() +
         gamma * facility.availability();
}

double CostModel::net_value(double gross_value,
                            const std::vector<Facility>& members) const {
  validate();
  if (members.empty()) return 0.0;
  double net = gross_value - federation_fixed_cost;
  for (const auto& f : members) net -= facility_cost(f);
  return net;
}

void CostModel::validate() const {
  const double params[] = {alpha, beta, gamma, federation_fixed_cost};
  for (const double p : params) {
    if (!std::isfinite(p) || p < 0.0) {
      throw std::invalid_argument(
          "CostModel: parameters must be finite and >= 0");
    }
  }
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
    member_cost.push_back(cost.facility_cost(f));
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

}  // namespace fedshare::model
