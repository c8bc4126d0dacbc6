#include "model/analytic_value.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace fedshare::model {

game::TabularGame analytic_game(const LocationSpace& space,
                                const sim::TrafficClass& traffic,
                                bool scaling_per_facility) {
  const int n = space.num_facilities();
  if (n > kMaxFacilities) {
    throw std::invalid_argument("analytic_game: at most " +
                                std::to_string(kMaxFacilities) +
                                " facilities");
  }
  traffic.request.validate();
  if (!(traffic.arrival_rate > 0.0)) {
    throw std::invalid_argument("analytic_game: arrival_rate must be > 0");
  }
  const auto needed = static_cast<int>(
      std::ceil(traffic.request.effective_threshold() - 1e-12));

  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> values(count, 0.0);
  const double utility_per_call =
      std::pow(static_cast<double>(needed), traffic.request.exponent);
  for (std::uint64_t mask = 1; mask < count; ++mask) {
    const auto coalition = game::Coalition::from_bits(mask);
    const auto histogram = space.capacity_histogram(coalition);
    const auto total_locations = static_cast<int>(histogram.num_locations());
    if (total_locations < needed) continue;  // structurally blocked
    // Mean integer servers per location (capacity / units-per-call).
    double mean_servers = 0.0;
    for (const alloc::CapacityBin& b : histogram.bins) {
      mean_servers += static_cast<double>(b.count) * b.capacity /
                      traffic.request.units_per_location;
    }
    mean_servers /= static_cast<double>(total_locations);
    const int servers = std::max(1, static_cast<int>(
                                        std::floor(mean_servers + 1e-9)));
    const double rate = scaling_per_facility
                            ? traffic.arrival_rate * coalition.size()
                            : traffic.arrival_rate;
    const auto blocking = sim::any_k_blocking(
        rate, traffic.request.holding_time, needed, total_locations,
        servers);
    values[mask] = rate * (1.0 - blocking.call_blocking) * utility_per_call;
  }
  return game::TabularGame(n, std::move(values));
}

}  // namespace fedshare::model
