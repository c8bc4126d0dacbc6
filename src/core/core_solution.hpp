// The core of a TU game (Sec. 3.2.1 of the paper) and the least-core LP.
//
// C = { v : sum_N v_i = V(N), sum_S v_i >= V(S) for all S }. Emptiness is
// decided via the least-core linear program: minimise epsilon subject to
// x(S) >= V(S) - epsilon; the core is non-empty iff epsilon* <= 0.
#pragma once

#include <vector>

#include "core/game.hpp"
#include "lp/simplex.hpp"

namespace fedshare::game {

/// Player ceiling of the least-core LP, which carries one row per proper
/// coalition (2^n - 2 of them).
inline constexpr int kMaxLeastCorePlayers = 12;

/// Result of the least-core LP.
struct LeastCoreResult {
  bool solved = false;            ///< LP solved to optimality
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;  ///< LP outcome
  double epsilon = 0.0;           ///< minimal uniform excess bound
  std::vector<double> allocation; ///< an optimal allocation x
};

/// Solves the least-core LP. Requires 1 <= n <= kMaxLeastCorePlayers.
/// The dense engine starts from the equal split V(N) / n with epsilon
/// at its largest excess, so the 2^n - 2 excess rows need no phase-1
/// artificials.
[[nodiscard]] LeastCoreResult least_core(const Game& game);

/// Variant threading solver options through the LP (engine choice,
/// tolerance, ComputeBudget).
[[nodiscard]] LeastCoreResult least_core(const Game& game,
                                         const lp::SimplexOptions& options);

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
