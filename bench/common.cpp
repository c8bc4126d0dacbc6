#include "common.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "io/ascii_plot.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "lp/revised_simplex.hpp"
#include "model/demand.hpp"
#include "model/location_space.hpp"

namespace fedshare::benchutil {

void print_figure(std::ostream& out, const std::string& title,
                  const std::string& x_name, const std::vector<double>& x,
                  const std::vector<SweepSeries>& series,
                  int value_precision) {
  io::print_heading(out, title);

  std::vector<std::string> headers{x_name};
  for (const auto& s : series) {
    if (s.y.size() != x.size()) {
      throw std::invalid_argument("print_figure: series length mismatch");
    }
    headers.push_back(s.name);
  }
  io::Table table(std::move(headers));
  for (std::size_t r = 0; r < x.size(); ++r) {
    std::vector<std::string> row{io::format_double(x[r], 1)};
    for (const auto& s : series) {
      row.push_back(io::format_double(s.y[r], value_precision));
    }
    table.add_row(std::move(row));
  }
  table.print(out);

  io::AsciiPlot plot(72, 18);
  plot.set_x_label(x_name);
  for (const auto& s : series) {
    plot.add_series({s.name, x, s.y});
  }
  out << '\n';
  plot.print(out);
  out << '\n';

  if (const char* dir = std::getenv("FEDSHARE_CSV_DIR")) {
    const std::string path = std::string(dir) + "/" + slugify(title) + ".csv";
    std::ofstream file(path);
    if (file) {
      io::CsvWriter csv(file);
      std::vector<std::string> header{x_name};
      for (const auto& s : series) header.push_back(s.name);
      csv.write_row(header);
      for (std::size_t r = 0; r < x.size(); ++r) {
        std::vector<double> row{x[r]};
        for (const auto& s : series) row.push_back(s.y[r]);
        csv.write_row(row);
      }
      out << "(series written to " << path << ")\n";
    }
  }
}

std::string slugify(const std::string& title) {
  std::string slug;
  bool pending_dash = false;
  for (const char raw : title) {
    const auto ch = static_cast<unsigned char>(raw);
    if (std::isalnum(ch)) {
      if (pending_dash && !slug.empty()) slug += '-';
      pending_dash = false;
      slug += static_cast<char>(std::tolower(ch));
    } else {
      pending_dash = true;
    }
  }
  return slug.empty() ? "figure" : slug;
}

std::vector<model::FacilityConfig> make_facilities(
    const std::vector<int>& locations, const std::vector<double>& units) {
  if (locations.size() != units.size()) {
    throw std::invalid_argument("make_facilities: size mismatch");
  }
  std::vector<model::FacilityConfig> configs;
  configs.reserve(locations.size());
  for (std::size_t i = 0; i < locations.size(); ++i) {
    model::FacilityConfig cfg;
    cfg.name = "F" + std::to_string(i + 1);
    cfg.num_locations = locations[i];
    cfg.units_per_location = units[i];
    configs.push_back(std::move(cfg));
  }
  return configs;
}

std::vector<model::FacilityConfig> fig4_facilities() {
  return make_facilities({100, 400, 800}, {1.0, 1.0, 1.0});
}

BoundChain outage_bound_chain(int n) {
  std::vector<model::FacilityConfig> configs;
  for (int i = 0; i < n; ++i) {
    model::FacilityConfig cfg;
    cfg.name = "F" + std::to_string(i);
    cfg.num_locations = 8 + 4 * (i % 4);
    cfg.units_per_location = 1.0 + 0.5 * (i % 3);
    cfg.availability = 1.0 - 0.05 * (i % 4);
    configs.push_back(std::move(cfg));
  }
  const auto space = model::LocationSpace::disjoint(std::move(configs));
  model::DemandProfile demand;
  demand.classes.push_back({8.0, 6.0, 1.0, 1.0, 1.0});
  demand.classes.push_back({4.0, 12.0, 2.0, 1.0, 1.0});
  demand.classes.push_back({3.0, 3.0, 1.5, 0.9, 1.0});

  const game::Coalition grand = game::Coalition::grand(n);
  const std::vector<int> grand_ids = space.pooled_location_ids(grand);
  // A coalition's pool, spread over the grand pool's positions (both id
  // lists ascend); locations no member covers keep capacity 0.
  const auto caps_of = [&](game::Coalition coalition) {
    const std::vector<int> ids = space.pooled_location_ids(coalition);
    const alloc::LocationPool pool = space.pool_for(coalition);
    std::vector<double> caps(grand_ids.size(), 0.0);
    std::size_t g = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      while (grand_ids[g] != ids[k]) ++g;
      caps[g] = pool.capacity[k];
    }
    return caps;
  };
  BoundChain chain{alloc::RelaxationTemplate(grand_ids.size(), demand.classes),
                   {}};
  const std::vector<double> full = caps_of(grand);
  chain.caps.push_back(full);
  for (int i = 0; i < n; ++i) {
    chain.caps.push_back(caps_of(grand.without(i)));
    chain.caps.push_back(full);
  }
  return chain;
}

ChainSolve solve_bound_chain(const BoundChain& chain,
                             const lp::SimplexOptions& options, bool warm) {
  ChainSolve out;
  if (chain.tmpl.empty()) return out;
  const bool revised = options.solver == lp::SolverKind::kRevised;
  std::optional<lp::RevisedSimplex> proto;
  if (revised) proto.emplace(chain.tmpl.problem(), options);
  std::optional<lp::RevisedSimplex> engine;
  if (revised && warm) engine.emplace(*proto);
  lp::Basis basis;
  for (const std::vector<double>& caps : chain.caps) {
    lp::Solution sol;
    if (engine.has_value()) {
      engine->apply(chain.tmpl.capacity_patch(caps));
      sol = engine->solve_from_basis(basis);
      if (sol.optimal()) basis = engine->basis();
    } else if (revised) {
      lp::RevisedSimplex cold = *proto;
      cold.apply(chain.tmpl.capacity_patch(caps));
      sol = cold.solve();
    } else {
      lp::Problem prob = chain.tmpl.problem();
      chain.tmpl.apply_capacities(prob, caps);
      sol = lp::solve(prob, options);
    }
    out.values.push_back(sol.objective);
    out.pivots += sol.pivots;
    out.complete = out.complete && sol.optimal();
  }
  return out;
}

}  // namespace fedshare::benchutil
