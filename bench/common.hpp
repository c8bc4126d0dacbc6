// Shared helpers for the figure-reproduction and perf benches.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "alloc/lp_relax.hpp"
#include "lp/simplex.hpp"
#include "model/facility.hpp"

namespace fedshare::benchutil {

/// One plotted series (y values aligned with the sweep's x values).
struct SweepSeries {
  std::string name;
  std::vector<double> y;
};

/// Prints a reproduced figure: heading, aligned data table, and an ASCII
/// plot of all series over the common x grid. If the environment
/// variable FEDSHARE_CSV_DIR is set, the raw series are additionally
/// written to <dir>/<slug(title)>.csv for external re-plotting.
void print_figure(std::ostream& out, const std::string& title,
                  const std::string& x_name, const std::vector<double>& x,
                  const std::vector<SweepSeries>& series,
                  int value_precision = 4);

/// Filesystem-safe slug of a figure title (lowercase alnum and dashes),
/// exposed for tests of the CSV export path.
[[nodiscard]] std::string slugify(const std::string& title);

/// Facility configs with the given location counts L_i and per-location
/// units R_i (names F1, F2, ...). Sizes must match.
[[nodiscard]] std::vector<model::FacilityConfig> make_facilities(
    const std::vector<int>& locations, const std::vector<double>& units);

/// The three-facility setting of Figs. 4-5: L = (100, 400, 800), R = 1.
[[nodiscard]] std::vector<model::FacilityConfig> fig4_facilities();

/// The LP chain of a churning roster's relaxation bound: the allocation
/// relaxation over the grand pool of n distinct disjoint facilities
/// (as the serve layer pools its roster), solved at full capacity and
/// then with each facility's locations zeroed and restored in turn (an
/// outage start and end per facility), 2n + 1 links in all. Three
/// request classes, so the capacity rows carry several nonzeros; with
/// one class every row presolves into a bound and no engine pivots.
struct BoundChain {
  alloc::RelaxationTemplate tmpl;
  std::vector<std::vector<double>> caps;  ///< capacity rhs per link
};
[[nodiscard]] BoundChain outage_bound_chain(int n);

/// Objectives and total pivots of one pass over a BoundChain.
struct ChainSolve {
  std::vector<double> values;  ///< objective per link
  std::uint64_t pivots = 0;
  bool complete = true;  ///< every link solved to optimality
};

/// Solves every link with `options`. The dense engine and cold revised
/// runs solve each link from scratch; a warm revised run keeps one
/// engine and re-solves each link from the previous optimal basis.
[[nodiscard]] ChainSolve solve_bound_chain(const BoundChain& chain,
                                           const lp::SimplexOptions& options,
                                           bool warm);

}  // namespace fedshare::benchutil
