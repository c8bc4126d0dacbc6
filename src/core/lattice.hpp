// Cache-blocked subset-lattice transform kernels.
//
// Every exact solidarity quantity this library computes — Shapley,
// Banzhaf, Harsanyi dividends — is a linear functional of the value
// table v[0..2^n) over the subset lattice. This module hosts the
// kernels as O(n * 2^n) passes engineered around two contracts:
//
//  * Bitwise reproducibility. Each kernel performs *exactly* the same
//    floating-point operations in *exactly* the same order as the
//    historical scalar loop it replaces, at any exec thread count:
//      - the Moebius transform touches every slot once per bit pass
//        (slot updates are independent within a pass), so scheduling is
//        unobservable;
//      - the Shapley/Banzhaf kernels accumulate each player's sum over
//        masks in ascending mask order in a private slot, which is the
//        accumulation order of the scalar subset formula.
//    tests/test_lattice.cpp pins both claims (kernel vs. inline scalar
//    reference, 1 thread vs. 4 threads, bit-for-bit).
//
//  * Budget charging. shapley_lattice_budgeted charges one unit per
//    coalition slot materialised per player pass (2^(n-1) each) and
//    returns nullopt when the budget trips — partial per-player sums are
//    not a meaningful answer.
//
// Memory access: a bit pass walks 2^(n-1) (lo, hi) slot pairs where the
// lo index enumerates contiguous blocks of 2^bit slots — two forward
// streams, one read-modify-write, which is the cache-friendly blocked
// layout (the classic mask-conditional loop touches the same pairs but
// hides the streaming structure from the prefetcher). The marginal
// kernels stream the same pair layout per player.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/game.hpp"
#include "runtime/budget.hpp"

namespace fedshare::game {

/// In-place fast Moebius transform
///   v'[S] = sum_{T subseteq S} (-1)^(|S|-|T|) v[T],
/// the inverse of the zeta transform (subset sums). Applied to a value
/// table this yields the Harsanyi dividends. Runs bit pass by bit pass
/// through exec::parallel_for; bit-identical at any thread count (each
/// slot is written by exactly one chunk per pass).
void moebius_transform(std::vector<double>& values, int num_players);

/// The subset-formula weights w[s] = s! (n-s-1)! / n! for s = 0..n-1,
/// computed in log space, for n up to kMaxTablePlayers. Exposed so tests
/// can reproduce the scalar reference loop with the exact same table.
[[nodiscard]] std::vector<double> shapley_subset_weights(int num_players);

/// Exact Shapley values from a tabulated game via per-player lattice
/// passes. Bitwise-identical to the scalar subset formula
///   phi_i = sum_{S not ni i} w[|S|] (v[S+i] - v[S])
/// accumulated in ascending mask order, and parallel across players.
[[nodiscard]] std::vector<double> shapley_lattice(const TabularGame& tab);

/// Budgeted variant: charges one unit per (player, subset) pair scanned
/// — n * 2^(n-1) units for a complete run — and returns nullopt on a
/// trip (partial per-player sums are meaningless).
[[nodiscard]] std::optional<std::vector<double>> shapley_lattice_budgeted(
    const TabularGame& tab, const runtime::ComputeBudget& budget);

/// Raw Banzhaf values via the same per-player pass layout:
///   beta_i = 2^-(n-1) sum_{S not ni i} (v[S+i] - v[S]),
/// bitwise-identical to the scalar loop, parallel across players.
[[nodiscard]] std::vector<double> banzhaf_lattice(const TabularGame& tab);

/// Harsanyi dividends of a tabulated game: a copy of the value table
/// pushed through moebius_transform. Bitwise-identical to the scalar
/// in-place transform at any thread count.
[[nodiscard]] std::vector<double> dividends_lattice(const TabularGame& tab);

}  // namespace fedshare::game
