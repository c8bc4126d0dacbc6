#include "model/stochastic_value.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "core/limits.hpp"

namespace fedshare::model {

game::TabularGame simulated_game(const LocationSpace& space,
                                 const std::vector<sim::TrafficClass>& traffic,
                                 const sim::SimConfig& config,
                                 ArrivalScaling scaling) {
  const int n = space.num_facilities();
  limits::require("simulated_game", n, limits::kMaxFacilities);
  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> values(count, 0.0);
  for (std::uint64_t mask = 1; mask < count; ++mask) {
    const auto coalition = game::Coalition::from_bits(mask);
    const auto pool = space.pool_for(coalition);
    if (pool.num_locations() == 0) continue;
    std::vector<sim::TrafficClass> scaled = traffic;
    if (scaling == ArrivalScaling::kPerFacility) {
      for (auto& tc : scaled) tc.arrival_rate *= coalition.size();
    }
    values[mask] =
        sim::simulate_multiplexing(pool, scaled, config).utility_rate;
  }
  return game::TabularGame(n, std::move(values));
}

double multiplexing_gain(const game::Game& simulated) {
  const double grand = simulated.grand_value();
  const double solo = game::standalone_total(simulated);
  if (solo <= 0.0) {
    return grand > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
  }
  return grand / solo;
}

}  // namespace fedshare::model
