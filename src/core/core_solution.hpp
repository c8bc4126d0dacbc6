// The core of a TU game (Sec. 3.2.1 of the paper) and the least-core LP.
//
// C = { v : sum_N v_i = V(N), sum_S v_i >= V(S) for all S }. Emptiness is
// decided via the least-core linear program: minimise epsilon subject to
// x(S) >= V(S) - epsilon; the core is non-empty iff epsilon* <= 0. That
// LP is also the nucleolus's first round, and least_core runs it there.
#pragma once

#include <vector>

#include "core/game.hpp"
#include "lp/simplex.hpp"

namespace fedshare::game {

/// A least-core dual weight y_S > 0 on the excess row of a coalition.
struct CoalitionWeight {
  Coalition coalition;
  double weight = 0.0;
};

/// Result of the least-core LP.
struct LeastCoreResult {
  bool solved = false;            ///< LP solved to optimality
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;  ///< LP outcome
  double epsilon = 0.0;           ///< minimal uniform excess bound
  std::vector<double> allocation; ///< an optimal allocation x
  /// The optimum's dual weights y_S > 0 (empty when the engine gave no
  /// duals): they certify epsilon as a lower bound on the largest excess
  /// of every efficient allocation (verify::least_core_bound).
  std::vector<CoalitionWeight> weights;
};

/// Solves the least-core LP as the first round of the nucleolus loop on
/// the all-singletons partition (core/nucleolus.cpp): the same working
/// set, closed over all 2^n - 2 excess rows, and the same started LP,
/// under `options` (engine, tolerance, ComputeBudget). Requires n >= 1
/// and at most kMaxExcessRows excess rows (n <= 15), else throws
/// std::invalid_argument; n = 1 has no excess row, so epsilon is
/// unbounded (solved == false, status kUnbounded).
[[nodiscard]] LeastCoreResult least_core(
    const Game& game, const lp::SimplexOptions& options = {});

/// Whether `allocation` lies in the core of `game`, up to `tolerance`.
/// Checks efficiency (|x(N) - V(N)| <= tolerance) and coalitional
/// rationality for every proper coalition. `allocation` must have one
/// entry per player.
[[nodiscard]] bool in_core(const Game& game,
                           const std::vector<double>& allocation,
                           double tolerance = 1e-6);

/// The maximum violation of `allocation` over all proper coalitions:
/// max_S (V(S) - x(S)); <= 0 means the allocation satisfies every
/// coalition. Does not check efficiency.
[[nodiscard]] double max_core_violation(const Game& game,
                                        const std::vector<double>& allocation);

}  // namespace fedshare::game
