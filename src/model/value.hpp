// The coalition-value engine: V(S) from first principles.
//
// Pools the coalition's locations, runs the resource allocator against
// the demand profile, and reports the attained total utility (the
// commercial-scenario profit, P = V = sum_k u_k(x_k), Sec. 4). The
// closed-form values the paper derives for its examples (Sec. 4.1) are
// asserted against this engine in tests — the engine never hard-codes
// them.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/allocation.hpp"
#include "core/coalition.hpp"
#include "core/symmetry.hpp"
#include "lp/simplex.hpp"
#include "model/demand.hpp"
#include "model/location_space.hpp"

namespace fedshare::model {

/// Full allocation outcome for a coalition facing `demand`.
[[nodiscard]] alloc::AllocationResult coalition_allocation(
    const LocationSpace& space, const DemandProfile& demand,
    game::Coalition coalition);

/// V(S): total utility the coalition can generate (0 for the empty
/// coalition). Runs the greedy on the coalition's capacity histogram,
/// so it equals coalition_allocation(...).total_utility bitwise.
[[nodiscard]] double coalition_value(const LocationSpace& space,
                                     const DemandProfile& demand,
                                     game::Coalition coalition);

/// Consumption weights for Eq. 7: units consumed from each facility's
/// resources under the grand coalition's optimal allocation.
[[nodiscard]] std::vector<double> consumption_weights(
    const LocationSpace& space, const DemandProfile& demand);

/// Candidate player symmetry from the static configuration: facilities
/// are grouped into one type when their configs match exactly
/// (num_locations, units_per_location, availability, custom_units —
/// names are ignored) *and* the whole space is disjoint (every facility
/// on its own locations). Overlapping facilities are never grouped —
/// even with equal configs their neighbourhoods can differ — so the
/// identity partition is returned for overlapping spaces. The result is
/// a sound symmetry of both the greedy V(S) and its LP relaxation:
/// swapping two same-type facilities permutes pooled per-location
/// capacities without changing their multiset, and both depend on the
/// pool only through that multiset (the greedy's tie order is on
/// location state, not position; see alloc/greedy.hpp).
[[nodiscard]] game::PlayerPartition config_symmetry_partition(
    const LocationSpace& space);

/// Options for lp_relaxation_sweep.
struct LpSweepOptions {
  /// Engine, tolerance, iteration cap, and (optional) budget for every
  /// LP in the sweep. The budget is forked per chunk through the exec
  /// layer, honoring the one-unit-per-pivot charging rule.
  lp::SimplexOptions simplex;
  /// Warm-start each coalition's LP from the optimal basis of its
  /// predecessor in the subset lattice (mask & (mask - 1), the coalition
  /// with the lowest member removed). Only effective with
  /// SolverKind::kRevised; the dense engine always solves cold.
  bool warm_start = true;
  /// Exploit player symmetry (core/symmetry.hpp): with kExact the sweep
  /// solves one LP per orbit of config_symmetry_partition() — warm
  /// chained along the quotient lattice — and expands orbit values to
  /// all 2^n masks; kAuto additionally verifies the candidate partition
  /// with the sampling oracle first. kOff (default) keeps the historical
  /// full sweep, byte-identical output included.
  game::SymmetryMode symmetry = game::SymmetryMode::kOff;
  /// Solve each level's warm re-solves through lp::BatchSolver: siblings
  /// whose predecessors left identical basis statuses share one
  /// factorization and a panel FTRAN, with pivot-requiring members
  /// spilling to the ordinary single solve. Results (values, pivot
  /// counts, bases) are bitwise identical to the unbatched sweep; only
  /// effective on warm revised sweeps without a budget or observer.
  bool batch = true;
};

/// Result of lp_relaxation_sweep. `values[mask]` is the LP-relaxation
/// upper bound on coalition `mask`'s allocation utility (exact for the
/// d = 1 demand profiles of the paper's figures); `values[0] == 0`.
struct LpSweepResult {
  std::vector<double> values;  ///< 2^n entries, indexed by coalition mask
  std::uint64_t total_pivots = 0;  ///< simplex iterations across all LPs
  std::uint64_t lps_solved = 0;  ///< LPs actually run (orbits when quotiented)
  std::uint64_t batch_fast = 0;     ///< zero-pivot solves off the shared LU
  std::uint64_t batch_spilled = 0;  ///< batched members that fell back
  bool complete = true;  ///< false when the budget tripped mid-sweep
};

/// Tabulates the allocation-relaxation value of every coalition by
/// sweeping the subset lattice level by level (popcount order): the LP
/// is built once over the grand coalition's location set, each
/// coalition patches in its pooled per-location capacities (uncovered
/// locations get capacity 0, which is equivalent to dropping them), and
/// — with the revised engine — re-solves warm from the basis of the
/// coalition one member smaller. Levels run through exec::parallel_for
/// with a fixed chunk decomposition and per-mask result slots, so the
/// result (values and total_pivots) is bit-identical for any thread
/// count. Throws std::invalid_argument for more than 20 facilities.
[[nodiscard]] LpSweepResult lp_relaxation_sweep(
    const LocationSpace& space, const DemandProfile& demand,
    const LpSweepOptions& options = {});

}  // namespace fedshare::model
