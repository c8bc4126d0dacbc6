// Reference nucleolus: the classical Maschler loops with no tightness
// filters. Every round runs one aux-max LP for every active excess row
// and the +/- uniqueness probes for every share variable, exactly the
// scheme core/nucleolus.cpp implemented before its filters. Kept out of
// the library: the differential test (tests/test_nucleolus_filters.cpp)
// requires the filtered scheme to match it bitwise, and
// bench/perf_nucleolus reports its LP and pivot counts as the
// unfiltered baseline.
#pragma once

#include "core/game.hpp"
#include "core/nucleolus.hpp"
#include "core/symmetry.hpp"
#include "lp/simplex.hpp"

namespace fedshare::game::reference {

/// Dense (mask-row) formulation, one aux-max probe per active row.
[[nodiscard]] NucleolusResult unfiltered_nucleolus(
    const TabularGame& game, const lp::SimplexOptions& options);

/// Orbit-row formulation, one aux-max probe per active orbit row.
[[nodiscard]] NucleolusResult unfiltered_nucleolus_quotient(
    const QuotientGame& game, const lp::SimplexOptions& options);

}  // namespace fedshare::game::reference
