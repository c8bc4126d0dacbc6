// Ablation A11 (extension): which federations actually form. Runs
// merge-and-split coalition formation (Saad et al. [12], cited by the
// paper) on the Fig. 4 configuration across diversity thresholds:
// when does the grand federation assemble endogenously, and when do
// facilities stay apart? Runs on the structure subsystem's hedonic
// engine (structure/hedonic.hpp), which has no player cap; the final
// case exercises n = 12.
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "io/table.hpp"
#include "model/federation.hpp"
#include "structure/hedonic.hpp"

namespace {

std::string partition_string(const fedshare::game::CoalitionStructure& p) {
  std::string out;
  for (const auto& block : p.unions) {
    if (!out.empty()) out += " ";
    out += block.to_string();
  }
  return out;
}

}  // namespace

int main() {
  using namespace fedshare;

  io::print_heading(std::cout,
                    "A11 — merge-split federation formation vs threshold l");
  io::Table table({"n", "l", "d", "stable partition", "ops", "total value"});
  table.set_align(3, io::Align::kLeft);

  const auto configs = benchutil::fig4_facilities();
  struct Case {
    double l;
    double d;
  };
  const Case cases[] = {{0.0, 1.0},   {300.0, 1.0},  {700.0, 1.0},
                        {1250.0, 1.0}, {0.0, 0.7},   {600.0, 1.3}};
  for (const auto& c : cases) {
    model::Federation fed(model::LocationSpace::disjoint(configs),
                          model::DemandProfile::single_experiment(c.l, c.d));
    const auto g = fed.build_game();
    const auto result = structure::hedonic_merge_split(g);
    double total = 0.0;
    for (const double p : result.payoffs) total += p;
    table.add_row({std::to_string(g.num_players()),
                   io::format_double(c.l, 0), io::format_double(c.d, 1),
                   partition_string(result.partition),
                   std::to_string(result.iterations),
                   io::format_double(total, 1)});
  }

  // 12 small facilities under a threshold economy. Merge-and-split settles on a D_hp-stable partition where
  // one block crosses the threshold — a local optimum, not necessarily
  // the grand federation.
  {
    std::vector<int> locations;
    std::vector<double> units;
    for (int i = 0; i < 12; ++i) {
      locations.push_back(60 + 20 * i);
      units.push_back(1.0);
    }
    model::Federation fed(
        model::LocationSpace::disjoint(
            benchutil::make_facilities(locations, units)),
        model::DemandProfile::single_experiment(1500.0));
    const auto g = fed.build_game();
    const auto result = structure::hedonic_merge_split(g);
    double total = 0.0;
    for (const double p : result.payoffs) total += p;
    table.add_row({std::to_string(g.num_players()),
                   io::format_double(1500.0, 0), io::format_double(1.0, 1),
                   partition_string(result.partition),
                   std::to_string(result.iterations),
                   io::format_double(total, 1)});
  }
  table.print(std::cout);
  std::cout << "\nExpected: with d = 1 any threshold-gated demand drives\n"
               "full federation (superadditive value); the concave d < 1,\n"
               "l = 0 economy is subadditive and facilities stay alone —\n"
               "exactly the paper's Sec. 3.2.1 boundary between the\n"
               "regimes where federation is and is not self-sustaining.\n"
               "In the n = 12 case merge-split stops at a D_hp-stable local\n"
               "optimum (one block over the threshold), not the\n"
               "welfare-optimal structure.\n";
  return 0;
}
