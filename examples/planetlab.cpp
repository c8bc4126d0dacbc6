// PlanetLab federation scenario: PLC, PLE and PLJ (Sec. 1.2) facing the
// paper's three workload archetypes (Sec. 2.3.1) — P2P experiments,
// CDN services, measurement experiments — in both a static allocation
// view and a discrete-event statistical-multiplexing view.
#include <iostream>

#include "core/core_solution.hpp"
#include "core/sharing.hpp"
#include "io/table.hpp"
#include "model/federation.hpp"
#include "sim/multiplex_sim.hpp"

namespace {

using namespace fedshare;

void static_analysis(const model::LocationSpace& space) {
  // Static demand: a daily batch of archetype experiments.
  model::DemandProfile demand;
  demand.classes = {model::p2p_experiment(30.0), model::cdn_service(5.0),
                    model::measurement_experiment(10.0)};
  model::Federation fed(space, demand);

  const auto g = fed.build_game();
  io::print_heading(std::cout, "Static allocation view");
  io::Table values({"coalition", "V(S)"});
  values.set_align(0, io::Align::kLeft);
  const char* names[] = {"PLC", "PLE", "PLJ"};
  for (const auto& s : game::all_coalitions(3)) {
    if (s.empty()) continue;
    std::string label;
    for (const int m : s.members()) {
      if (!label.empty()) label += "+";
      label += names[m];
    }
    values.add_row({label, io::format_double(g.value(s), 0)});
  }
  values.print(std::cout);

  const auto comparison = game::compare_schemes(
      g, fed.availability_weights(), fed.consumption_weights());
  io::Table table({"scheme", "PLC", "PLE", "PLJ", "in core"});
  table.set_align(0, io::Align::kLeft);
  for (const auto& o : comparison.outcomes) {
    table.add_row({game::to_string(o.scheme),
                   io::format_percent(o.shares[0]),
                   io::format_percent(o.shares[1]),
                   io::format_percent(o.shares[2]),
                   game::in_core_label(o)});
  }
  std::cout << '\n';
  table.print(std::cout);
}

void multiplexing_analysis(const model::LocationSpace& space) {
  // DES view: Poisson arrivals of the three archetypes; compare each
  // authority operating alone vs the federated pool.
  io::print_heading(std::cout, "Statistical-multiplexing view (DES)");
  std::vector<sim::TrafficClass> traffic(3);
  traffic[0].request = model::p2p_experiment();
  traffic[0].arrival_rate = 2.0;
  traffic[1].request = model::cdn_service();
  traffic[1].arrival_rate = 0.3;
  traffic[2].request = model::measurement_experiment();
  traffic[2].arrival_rate = 0.5;

  sim::SimConfig cfg;
  cfg.horizon = 2000.0;
  cfg.warmup = 200.0;
  cfg.seed = 2010;
  cfg.holding_time.kind = sim::HoldingTimeModel::Kind::kExponential;

  io::Table table({"pool", "utility rate", "P2P block", "CDN block",
                   "meas block"});
  table.set_align(0, io::Align::kLeft);
  double standalone_total = 0.0;
  const char* names[] = {"PLC alone", "PLE alone", "PLJ alone"};
  for (int i = 0; i < 3; ++i) {
    const auto result = sim::simulate_multiplexing(
        space.pool_for(game::Coalition::single(i)), traffic, cfg);
    standalone_total += result.utility_rate;
    table.add_row({names[i], io::format_double(result.utility_rate, 1),
                   io::format_percent(
                       result.per_class[0].blocking_probability()),
                   io::format_percent(
                       result.per_class[1].blocking_probability()),
                   io::format_percent(
                       result.per_class[2].blocking_probability())});
  }
  const auto federated = sim::simulate_multiplexing(
      space.pool_for(game::Coalition::grand(3)), traffic, cfg);
  table.add_row({"federated",
                 io::format_double(federated.utility_rate, 1),
                 io::format_percent(
                     federated.per_class[0].blocking_probability()),
                 io::format_percent(
                     federated.per_class[1].blocking_probability()),
                 io::format_percent(
                     federated.per_class[2].blocking_probability())});
  table.print(std::cout);
  std::cout << "\nFederation gain (utility rate vs sum of standalone): "
            << io::format_double(federated.utility_rate / standalone_total, 2)
            << "x\n";
}

}  // namespace

int main() {
  // Rough scale of the 2010-era federation: ~1000 nodes across regions.
  std::vector<model::FacilityConfig> configs(3);
  configs[0] = {.name = "PLC", .num_locations = 300,
                .units_per_location = 10.0};
  configs[1] = {.name = "PLE", .num_locations = 180,
                .units_per_location = 8.0};
  configs[2] = {.name = "PLJ", .num_locations = 80,
                .units_per_location = 6.0};
  const auto space = model::LocationSpace::disjoint(configs);

  std::cout << "PlanetLab federation: PLC (300 sites), PLE (180), PLJ (80)\n"
               "Workloads: P2P (l=40, t=0.1), CDN (l=100, r=4), "
               "measurement (l=500, t=0.4)\n";
  static_analysis(space);
  multiplexing_analysis(space);
  std::cout << "\nNote: only the federated pool reaches the 500 distinct\n"
               "locations the measurement archetype needs — diversity, not\n"
               "capacity, is what PLJ's 80 extra sites buy the coalition.\n";
  return 0;
}
