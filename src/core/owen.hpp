// Owen value: the Shapley value for games with a coalition structure
// (a-priori unions).
//
// The paper's PlanetLab federation is explicitly hierarchical (Sec. 1.2):
// testbeds like G-Lab or EmanicsLab join through regional authorities
// (PLE), which federate at the top level with PLC and PLJ. The Owen
// value averages marginal contributions only over player orderings
// consistent with that structure — unions arrive as blocks — so it is
// the natural "two-level Shapley" for splitting federation value first
// across authorities and then inside each authority.
//
// Properties used as tests: with singleton unions (or one grand union)
// the Owen value equals the Shapley value, and each union's total Owen
// payoff equals the union's Shapley value in the quotient game.
#pragma once

#include <vector>

#include "core/coalition.hpp"
#include "core/game.hpp"

namespace fedshare::game {

/// A partition of the players 0..n-1 into non-empty unions.
struct CoalitionStructure {
  std::vector<Coalition> unions;

  /// Validates that `unions` partitions exactly the players of an
  /// n-player game; throws std::invalid_argument otherwise.
  void validate(int num_players) const;

  /// Index of the union containing `player`; throws if absent.
  [[nodiscard]] std::size_t union_of(int player) const;
};

/// Exact Owen value of every player. Requires n <= kMaxPairScanPlayers
/// (core/limits.hpp) and
/// 2^(#unions) * 2^(max union size) * n to stay small (the computation
/// enumerates union-subsets x within-union subsets).
[[nodiscard]] std::vector<double> owen_value(
    const Game& game, const CoalitionStructure& structure);

/// The quotient game between unions: players are union indices, and
/// V_q(H) = V(union of the unions in H). Useful for the top level of a
/// hierarchical federation. Requires at most kMaxTablePlayers unions.
[[nodiscard]] TabularGame quotient_game(const Game& game,
                                        const CoalitionStructure& structure);

}  // namespace fedshare::game
