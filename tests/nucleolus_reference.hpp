// Reference nucleolus: the classical Maschler loops with no tightness
// filters. Every round runs one aux-max LP for every active excess row
// and the +/- uniqueness probes for every share variable. Kept out of
// the library, which reads uniqueness off the fixed rows' rank and runs
// no such probe: these probes are the independent oracle that the rank
// test ends the loop exactly when the allocation is a point. The
// orbit-row loop has the row layout core/nucleolus.cpp runs for both of
// its entry points (the dense one on the all-singletons partition), so
// the differential test (tests/test_nucleolus_filters.cpp) requires the
// filtered scheme to match it within 1e-12 * scale on the same number
// of levels. The mask-row loop is the historical dense layout, which
// rebuilds each round's LP with the fixed rows first; it stays as an
// oracle within the same tolerance, and bench/perf_nucleolus reports
// its LP and pivot counts as the unfiltered dense baseline.
//
// The surplus helpers check a nucleolus from the kernel side: the
// nucleolus is always a pre-kernel point (Maschler), so every pair of
// players has balanced surpluses at it.
#pragma once

#include <vector>

#include "core/game.hpp"
#include "core/nucleolus.hpp"
#include "core/symmetry.hpp"
#include "lp/simplex.hpp"

namespace fedshare::game::reference {

/// Dense (mask-row) formulation, one aux-max probe per active row.
[[nodiscard]] NucleolusResult unfiltered_nucleolus(
    const TabularGame& game, const lp::SimplexOptions& options);

/// The first LP of unfiltered_nucleolus: the full-row least-core LP
/// (every 2^n - 2 excess row), solved cold. Its optimum's eps is
/// levels[0] without the rest of the loop, which takes minutes from
/// n = 9.
[[nodiscard]] lp::Solution full_row_least_core(
    const TabularGame& game, const lp::SimplexOptions& options);

/// Orbit-row formulation, one aux-max probe per active orbit row.
[[nodiscard]] NucleolusResult unfiltered_nucleolus_quotient(
    const QuotientGame& game, const lp::SimplexOptions& options);

/// Surplus s_ij(x) = max over coalitions S with i in S, j not in S of
/// V(S) - x(S): the best objection i can raise against j. Requires
/// distinct players in range and one allocation entry per player.
[[nodiscard]] double surplus(const Game& game,
                             const std::vector<double>& allocation, int i,
                             int j);

/// Largest pairwise imbalance max_{i != j} |s_ij - s_ji| at `allocation`.
[[nodiscard]] double max_surplus_imbalance(
    const Game& game, const std::vector<double>& allocation);

}  // namespace fedshare::game::reference
