// Ablation A14: sharing-scheme stability under facility outages. Sweeps
// the common availability T from 1.0 down to 0.5, samples outage
// scenarios from it, and reports for every scheme how far the realized
// shares drift from the nominal split and how often the scheme stays in
// the core. Schemes whose shares track the nominal split under faults
// are "stable": a facility can predict its revenue without knowing the
// outage realization.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "io/table.hpp"
#include "model/federation.hpp"
#include "runtime/outage.hpp"

namespace {

using namespace fedshare;

constexpr int kScenarios = 200;
constexpr std::uint64_t kSeed = 2010;

model::Federation make_federation(double availability) {
  auto configs = benchutil::fig4_facilities();
  for (auto& c : configs) c.availability = availability;
  return model::Federation(model::LocationSpace::disjoint(configs),
                           model::DemandProfile::single_experiment(500.0));
}

}  // namespace

int main() {
  io::print_heading(std::cout,
                    "A14 — scheme stability as availability degrades");
  std::cout << "facilities: L = (100, 400, 800), l = 500, " << kScenarios
            << " outage scenarios per availability level (seed " << kSeed
            << ")\n\n";

  io::Table table({"T", "scheme", "facility", "nominal", "mean", "q05",
                   "q95", "spread", "core frac"});
  io::Table drift({"T", "scheme", "max |mean - nominal|", "core frac"});
  for (const double t : {1.0, 0.9, 0.8, 0.7, 0.6, 0.5}) {
    const auto fed = make_federation(t);
    // Nominal split: the same schemes on the un-degraded federation.
    const auto nominal_game = fed.build_game();
    const auto nominal =
        game::compare_schemes(nominal_game, fed.availability_weights(),
                              fed.consumption_weights())
            .outcomes;
    const auto report = runtime::evaluate_outages(fed, kScenarios, kSeed);
    for (const auto& sr : report.schemes) {
      const auto base_it = std::find_if(
          nominal.begin(), nominal.end(),
          [&](const auto& o) { return o.scheme == sr.scheme; });
      if (base_it == nominal.end()) continue;
      double max_drift = 0.0;
      for (std::size_t i = 0; i < sr.shares.size(); ++i) {
        const double base = base_it->shares[i];
        const auto& st = sr.shares[i];
        max_drift = std::max(max_drift, std::abs(st.mean - base));
        table.add_row({io::format_double(t, 1), game::to_string(sr.scheme),
                       "F" + std::to_string(i + 1),
                       io::format_double(base, 4),
                       io::format_double(st.mean, 4),
                       io::format_double(st.q05, 4),
                       io::format_double(st.q95, 4),
                       io::format_double(st.q95 - st.q05, 4),
                       io::format_double(sr.core_fraction, 2)});
      }
      drift.add_row({io::format_double(t, 1), game::to_string(sr.scheme),
                     io::format_double(max_drift, 4),
                     io::format_double(sr.core_fraction, 2)});
    }
  }
  table.print(std::cout);

  io::print_heading(std::cout, "A14b — drift summary");
  drift.print(std::cout);

  std::cout << "\nExpected: at T = 1.0 every scheme's outage-expected share\n"
               "equals its nominal share exactly (no outages can occur). As\n"
               "T falls the q05-q95 spread widens and the mean drifts:\n"
               "value-based schemes (Shapley, nucleolus) shift value toward\n"
               "facilities whose survival matters most for clearing the\n"
               "diversity threshold, while proportional and equal splits\n"
               "ignore the realization entirely. Core membership becomes\n"
               "harder to retain as outages make the threshold binding.\n";
  return 0;
}
