// Hedonic merge/split coalition-formation dynamics.
//
// The Saad et al. [12] framework the paper cites for its Sec. 3.3
// "evolution of the federation game": facilities start partitioned,
// each block S earns V(S) split internally by the Shapley value of the
// subgame on S, and the dynamics repeatedly apply
//   * merge — a collection of blocks fuses when every member is at
//     least as well off and someone strictly gains (Pareto rule);
//   * split — a block breaks in two under the same rule.
// A partition admitting neither is merge-split stable (D_hp stability).
//
// Candidate order is deterministic — merge collections by size then
// lexicographic, splits anchored on each block's lowest member — and
// V(S) is read from the game as given (pass a TabularGame to compute
// each coalition once, as the CLI and the ablation bench do); there is
// no player cap. Beyond kMaxMergeEnumerationBlocks (core/limits.hpp)
// blocks the exhaustive 2^B collection sweep is replaced by
// deterministic pairwise merges (lexicographic pairs), a weaker rule,
// and the result says so in its note; up to the entry exhaustive
// enumeration always applies.
#pragma once

#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/owen.hpp"

namespace fedshare::structure {

/// Knobs for the dynamics.
struct HedonicOptions {
  /// Merge/split operations applied before giving up on convergence.
  int max_operations = 200;
};

/// Outcome of the dynamics.
struct HedonicResult {
  game::CoalitionStructure partition;  ///< final partition
  std::vector<double> payoffs;         ///< payoffs under it
  int iterations = 0;                  ///< operations applied
  bool converged = false;              ///< no admissible operation remains
  /// Empty, or why some merge phase enumerated pairs only: a refusal
  /// naming kMaxMergeEnumerationBlocks.
  std::string note;
};

/// Payoffs of all players under a partition: each block S earns V(S),
/// divided by the Shapley value of the subgame restricted to S.
[[nodiscard]] std::vector<double> partition_payoffs(
    const game::Game& game, const game::CoalitionStructure& partition);

/// Runs merge-and-split from `start` (singletons when omitted) until
/// stability or max_operations. Merges are tried before splits each
/// round; candidate order is deterministic, so results are
/// reproducible. Any n a Coalition can hold.
[[nodiscard]] HedonicResult hedonic_merge_split(
    const game::Game& game, const HedonicOptions& options = {});
[[nodiscard]] HedonicResult hedonic_merge_split(
    const game::Game& game, game::CoalitionStructure start,
    const HedonicOptions& options = {});

/// Whether `partition` admits no Pareto-improving merge or split
/// (D_hp stability).
[[nodiscard]] bool is_merge_split_stable(
    const game::Game& game, const game::CoalitionStructure& partition);

}  // namespace fedshare::structure
