// Quickstart: build a three-facility federation, compute the value of
// every coalition, and compare sharing schemes.
//
// This walks the paper's Sec. 4.1 worked example: facilities with
// L = (100, 400, 800) locations, a single customer experiment requiring
// at least 500 distinct locations, linear utility. The Shapley share of
// facility 2 comes out to 2/13 while its proportional share is 4/13 —
// proportional sharing overpays resources that cannot serve the customer
// alone.
#include <iostream>

#include "core/core_solution.hpp"
#include "core/sharing.hpp"
#include "io/table.hpp"
#include "model/federation.hpp"

int main() {
  using namespace fedshare;

  // 1. Describe the providers (Sec. 2.1): locations L_i, units R_i.
  std::vector<model::FacilityConfig> configs(3);
  configs[0] = {.name = "F1", .num_locations = 100, .units_per_location = 1};
  configs[1] = {.name = "F2", .num_locations = 400, .units_per_location = 1};
  configs[2] = {.name = "F3", .num_locations = 800, .units_per_location = 1};

  // 2. Describe demand (Sec. 2.2): one experiment, threshold l = 500.
  model::Federation fed(model::LocationSpace::disjoint(configs),
                        model::DemandProfile::single_experiment(500.0));

  // 3. The coalitional game: V(S) for every coalition (Sec. 3).
  const game::TabularGame g = fed.build_game();
  io::print_heading(std::cout, "Coalition values V(S), l = 500");
  io::Table values({"coalition", "V(S)"});
  values.set_align(0, io::Align::kLeft);
  for (const auto& s : game::all_coalitions(3)) {
    if (s.empty()) continue;
    values.add_row({s.to_string(), io::format_double(g.value(s), 0)});
  }
  values.print(std::cout);

  // 4. Compare sharing schemes (Sec. 3.2).
  const auto comparison =
      game::compare_schemes(g, fed.availability_weights(),
                            fed.consumption_weights());
  io::print_heading(std::cout, "Sharing schemes");
  io::Table table({"scheme", "s1", "s2", "s3", "in core"});
  table.set_align(0, io::Align::kLeft);
  for (const auto& o : comparison.outcomes) {
    table.add_row({game::to_string(o.scheme),
                   io::format_double(o.shares[0], 4),
                   io::format_double(o.shares[1], 4),
                   io::format_double(o.shares[2], 4),
                   game::in_core_label(o)});
  }
  table.print(std::cout);

  std::cout << "\nPaper check (Sec. 4.1): Shapley share of F2 = 2/13 = "
            << io::format_double(2.0 / 13.0, 4)
            << ", proportional = 4/13 = " << io::format_double(4.0 / 13.0, 4)
            << "\n";
  return 0;
}
