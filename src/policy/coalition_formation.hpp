// Dynamic coalition formation: merge-and-split over federation partitions
// (the Sec. 3.3 "evolution of the federation game" question, following
// the coalition-formation framework of Saad et al. [12], which the paper
// cites).
//
// Facilities start partitioned (by default as singletons). Each separate
// coalition S earns V(S) and splits it internally by the Shapley value of
// the subgame on S. The dynamics then repeatedly apply:
//   * merge — two coalitions fuse when every member is at least as well
//     off and someone strictly gains;
//   * split — a coalition breaks in two under the same Pareto rule.
// A partition with no admissible merge or split is merge-split stable
// (D_hp-stability in the Saad et al. terminology).
//
// This API is now a thin shim over structure/hedonic.hpp (same
// dynamics, no block-count ceiling); it keeps its
// historical n <= 10 envelope for compatibility. New code — and any
// game larger than 10 players — should use
// structure::hedonic_merge_split directly.
#pragma once

#include <vector>

#include "core/game.hpp"
#include "core/owen.hpp"

namespace fedshare::policy {

/// Payoffs of all players under a partition: each block S earns V(S),
/// divided by the Shapley value of the subgame restricted to S.
[[nodiscard]] std::vector<double> partition_payoffs(
    const game::Game& game, const game::CoalitionStructure& partition);

/// Outcome of merge-split dynamics.
struct FormationResult {
  game::CoalitionStructure partition;  ///< final partition
  std::vector<double> payoffs;         ///< payoffs under it
  int iterations = 0;                  ///< merge/split operations applied
  bool converged = false;              ///< no admissible operation remains
};

/// Runs merge-and-split from `start` (defaults to singletons when
/// omitted) until stability or `max_operations` operations. Merges are
/// tried before splits each round; candidate order is deterministic
/// (lexicographic), so results are reproducible. Requires n <= 10.
[[nodiscard]] FormationResult merge_split(
    const game::Game& game, int max_operations = 200);
[[nodiscard]] FormationResult merge_split(
    const game::Game& game, game::CoalitionStructure start,
    int max_operations = 200);

/// Whether `partition` admits no Pareto-improving merge or split.
[[nodiscard]] bool is_merge_split_stable(
    const game::Game& game, const game::CoalitionStructure& partition);

}  // namespace fedshare::policy
