// Harsanyi dividends and the Shapley interaction index.
//
// Every TU game decomposes uniquely over the unanimity basis:
// V = sum_S d_S * u_S with dividends d_S given by the Moebius transform
// of V. The dividends localise synergy — d_S != 0 means coalition S
// carries value that no sub-coalition explains — and yield:
//   * the Shapley value, phi_i = sum_{S ni i} d_S / |S| (the tests'
//     independent cross-check of the marginal-contribution engine), and
//   * the pairwise Shapley interaction index,
//     I_ij = sum_{S containing i,j} d_S / (|S| - 1),
//     positive when i and j are complements, negative for substitutes —
//     the precise sense in which the paper's diversity thresholds make
//     facilities complementary.
#pragma once

#include <vector>

#include "core/game.hpp"

namespace fedshare::game {

/// Harsanyi dividends indexed by coalition bitmask (d of the empty set
/// is 0). Computed by the fast Moebius transform, O(n * 2^n).
/// Requires n <= kMaxTablePlayers (core/limits.hpp).
[[nodiscard]] std::vector<double> harsanyi_dividends(const Game& game);

/// Pairwise Shapley interaction matrix: entry (i, j) is I_ij for i != j,
/// 0 on the diagonal. Symmetric. Requires n <= kMaxPairScanPlayers.
[[nodiscard]] std::vector<std::vector<double>> interaction_index(
    const Game& game);

}  // namespace fedshare::game
