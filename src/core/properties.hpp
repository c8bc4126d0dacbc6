// Structural properties of TU games (Sec. 3.2.1 of the paper).
//
// Superadditivity and convexity govern when the grand coalition is worth
// forming and when the core is guaranteed non-empty (convex => core
// contains the Shapley value). The checks return witnesses so tests and
// diagnostics can show *which* coalitions violate a property.
#pragma once

#include <optional>

#include "core/coalition.hpp"
#include "core/game.hpp"

namespace fedshare::game {

/// A violating pair of coalitions for diagnostics.
struct ViolationWitness {
  Coalition first;
  Coalition second;
  double deficit = 0.0;  ///< how far the inequality fails (positive)
};

/// Superadditivity: V(S u T) >= V(S) + V(T) for all disjoint S, T.
/// Returns a witness of the worst violation, or nullopt if superadditive.
/// Requires n <= kMaxDisjointPairPlayers (core/limits.hpp): the check
/// enumerates all disjoint pairs, O(3^n).
[[nodiscard]] std::optional<ViolationWitness> superadditivity_violation(
    const Game& game, double tolerance = 1e-9);

/// Convexity (supermodularity), checked via the equivalent pairwise
/// marginal condition: for all S and i != j not in S,
/// V(S+i+j) - V(S+j) >= V(S+i) - V(S). Returns the worst violation
/// witness ({S+i}, {S+j}) or nullopt if convex. Requires n <=
/// kMaxPairScanPlayers.
[[nodiscard]] std::optional<ViolationWitness> convexity_violation(
    const Game& game, double tolerance = 1e-9);

/// Monotonicity: V(S) <= V(T) whenever S is a subset of T (checked via
/// single-player extensions). Returns a witness (S, S+i) or nullopt.
/// Requires n <= kMaxPairScanPlayers.
[[nodiscard]] std::optional<ViolationWitness> monotonicity_violation(
    const Game& game, double tolerance = 1e-9);

[[nodiscard]] bool is_superadditive(const Game& game,
                                    double tolerance = 1e-9);
[[nodiscard]] bool is_convex(const Game& game, double tolerance = 1e-9);
[[nodiscard]] bool is_monotone(const Game& game, double tolerance = 1e-9);

/// Essential: V(N) strictly exceeds the sum of singleton values (there is
/// surplus worth bargaining over).
[[nodiscard]] bool is_essential(const Game& game, double tolerance = 1e-9);

/// Summary report of all properties.
struct PropertyReport {
  bool superadditive = false;
  bool convex = false;
  bool monotone = false;
  bool essential = false;
};

[[nodiscard]] PropertyReport analyze_properties(const Game& game,
                                                double tolerance = 1e-9);

}  // namespace fedshare::game
