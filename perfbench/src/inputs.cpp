#include "inputs.hpp"

#include <sstream>
#include <utility>

namespace fedbench {

std::uint64_t Rng::next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int Rng::uniform_int(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

std::uint64_t stream_seed(const std::string& workload, std::uint64_t seed,
                          std::uint64_t index) {
  // FNV-1a of the name keeps workloads' streams apart under one seed.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : workload) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  Rng rng(h ^ seed);
  const std::uint64_t base = rng.next();
  Rng per_index(base + index * 0xD1B54A32D192ED03ULL);
  return per_index.next();
}

namespace {

void facility_block(std::ostringstream& out, int index, int locations,
                    int units) {
  out << "[facility]\nname = F" << index << "\nlocations = " << locations
      << "\nunits = " << units << "\n\n";
}

void demand_blocks(std::ostringstream& out) {
  out << "[demand]\ncount = 20\nmin_locations = 300\n\n"
      << "[demand]\ncount = 5\nmin_locations = 900\nexponent = 1.2\n";
}

}  // namespace

std::string banded_config(Rng& rng, const std::vector<int>& units) {
  const int n = static_cast<int>(units.size());
  const int band = 900 / n;
  std::vector<int> order(units.size());
  for (int t = 0; t < n; ++t) order[static_cast<std::size_t>(t)] = t;
  for (int t = n - 1; t > 0; --t) {
    std::swap(order[static_cast<std::size_t>(t)],
              order[static_cast<std::size_t>(rng.uniform_int(0, t))]);
  }
  std::ostringstream out;
  int index = 0;
  for (const int t : order) {
    const int centre = 100 + band * t + band / 2;
    const int locations = rng.uniform_int(centre - 25, centre + 25);
    facility_block(out, index++, locations,
                   units[static_cast<std::size_t>(t)]);
  }
  demand_blocks(out);
  return out.str();
}

std::vector<fedshare::serve::Event> serve_roster() {
  // Two request classes give the LP bound table multi-row capacity
  // constraints, so the warm re-solve path does real work.
  fedshare::serve::DemandUpdate demand;
  demand.demand = fedshare::model::DemandProfile::uniform(8.0, 6.0);
  fedshare::model::RequestClass second;
  second.count = 3.0;
  second.min_locations = 2.0;
  second.units_per_location = 2.0;
  demand.demand.classes.push_back(second);

  std::vector<fedshare::serve::Event> events;
  events.emplace_back(std::move(demand));
  for (int i = 0; i < kServeRoster; ++i) {
    fedshare::serve::FacilityJoin join;
    join.config.name = "F" + std::to_string(i);
    join.config.num_locations = 4 + i % 3;
    join.config.units_per_location = 1.0 + 0.5 * (i % 2);
    join.config.availability = 0.9 - 0.05 * i;
    events.emplace_back(std::move(join));
  }
  return events;
}

Flap serve_flap(Rng& rng, std::size_t index) {
  Flap flap;
  flap.facility = static_cast<int>(index % kServeRoster);
  flap.outage_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
  flap.scenario = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
  return flap;
}

fedshare::serve::Event outage_start(const Flap& flap) {
  return fedshare::serve::OutageStart{"F" + std::to_string(flap.facility),
                                      flap.outage_seed, flap.scenario};
}

fedshare::serve::Event outage_end(const Flap& flap) {
  return fedshare::serve::OutageEnd{"F" + std::to_string(flap.facility)};
}

}  // namespace fedbench
