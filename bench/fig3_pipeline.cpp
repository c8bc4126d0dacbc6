// Reproduces Fig. 3: the federation game pipeline — individual
// contributions -> federation value -> profit/value sharing -> individual
// shares -> (feedback) provision decisions. This harness walks one full
// cycle of that loop on a concrete federation, printing each stage.
#include <iostream>

#include "common.hpp"
#include "core/sharing.hpp"
#include "io/table.hpp"
#include "model/federation.hpp"
#include "policy/equilibrium.hpp"

int main() {
  using namespace fedshare;

  io::print_heading(std::cout, "Fig. 3 — the federation game, one cycle");

  // Stage 1: individual contributions (local decisions L_i, R_i).
  const auto configs =
      benchutil::make_facilities({100, 400, 800}, {80.0, 60.0, 20.0});
  std::cout << "\n[1] contributions: (L, R) = (100, 80), (400, 60), "
               "(800, 20)\n";

  // Stage 2: resource allocation -> federation value.
  model::Federation fed(model::LocationSpace::disjoint(configs),
                        model::DemandProfile::uniform(40, 400.0));
  const auto g = fed.build_game();
  std::cout << "[2] resource allocation under demand (K = 40, l = 400): "
            << "V(N) = " << io::format_double(g.grand_value(), 0) << "\n";

  // Stage 3: profit/value sharing (policy input: the scheme).
  const auto comparison = game::compare_schemes(
      g, fed.availability_weights(), fed.consumption_weights());
  io::Table table({"scheme", "s1", "s2", "s3", "in core"});
  table.set_align(0, io::Align::kLeft);
  for (const auto& o : comparison.outcomes) {
    table.add_row({game::to_string(o.scheme),
                   io::format_double(o.shares[0], 3),
                   io::format_double(o.shares[1], 3),
                   io::format_double(o.shares[2], 3),
                   game::in_core_label(o)});
  }
  std::cout << "[3] profit sharing:\n";
  table.print(std::cout);

  // Stage 4: individual shares feed back into provision decisions.
  policy::ProvisionGame pg;
  pg.base_configs = configs;
  pg.strategy_grids = {{50, 100}, {200, 400}, {400, 800}};
  pg.demand = fed.demand();
  pg.cost.alpha = 1.0;
  const policy::ShapleyPolicy shapley;
  const auto br = policy::best_response_dynamics(pg, shapley, {0, 0, 0});
  std::cout << "[4] provision feedback (alpha = 1, Shapley policy): "
            << "best responses converge to L = (";
  for (std::size_t i = 0; i < br.profile.size(); ++i) {
    std::cout << pg.strategy_grids[i][br.profile[i]]
              << (i + 1 < br.profile.size() ? ", " : ")\n");
  }
  std::cout << "\nThe loop closes: the sharing policy chosen at [3]\n"
               "determines the contributions facilities choose at [4],\n"
               "which is why the paper treats the choice of policy as the\n"
               "design lever of the federation.\n";
  return 0;
}
