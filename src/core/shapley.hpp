// Shapley value computation (the paper's Eq. 4 and its normalisation,
// Eq. 5).
//
// Three engines are provided:
//  * shapley_exact       — marginal-contribution subset formula,
//                          O(2^n * n); the default up to
//                          kMaxTablePlayers (core/limits.hpp).
//  * shapley_permutations— direct enumeration of all n! orderings,
//                          O(n! * n); cross-check up to
//                          kMaxPermutationPlayers.
//  * shapley_monte_carlo — uniform permutation sampling with standard
//                          errors; for large n (hierarchical federations).
// resilient_shapley chains them under a ComputeBudget: exact first,
// antithetic Monte Carlo when the budget trips.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/game.hpp"

namespace fedshare::game {

/// Exact Shapley values, phi[i] for each player, via the subset formula
/// phi_i = sum_{S not containing i} |S|!(n-|S|-1)!/n! (V(S+i) - V(S)).
/// The game is tabulated once; requires n <= kMaxTablePlayers.
[[nodiscard]] std::vector<double> shapley_exact(const Game& game);

/// Budgeted exact Shapley: charges `budget` one unit per V(S) evaluation
/// during tabulation, then runs shapley_lattice_budgeted (n * 2^(n-1)
/// units; bitwise equal to shapley_exact). Returns nullopt when the
/// budget trips (a partial subset sum is not a meaningful estimate —
/// degrade to shapley_monte_carlo* instead; see resilient_shapley for
/// the sanctioned cascade).
[[nodiscard]] std::optional<std::vector<double>> shapley_exact_budgeted(
    const Game& game, const runtime::ComputeBudget& budget);

/// Exact Shapley values by enumerating all n! player orderings and
/// averaging marginal contributions. Exponentially slower than
/// shapley_exact; kept as an independent cross-check. Requires n <=
/// kMaxPermutationPlayers.
[[nodiscard]] std::vector<double> shapley_permutations(const Game& game);

/// Monte-Carlo Shapley estimate.
struct MonteCarloShapley {
  std::vector<double> phi;             ///< estimated Shapley values
  std::vector<double> standard_error;  ///< per-player standard errors
  std::uint64_t samples = 0;           ///< permutations actually drawn
  /// False when an attached ComputeBudget tripped before the requested
  /// sample count; phi/standard_error then reflect `samples` draws (at
  /// least two are always completed so the errors stay defined).
  bool complete = true;
};

/// Estimates Shapley values by sampling `samples` uniform permutations
/// (each sample evaluates V n+1 times along a random ordering).
/// Deterministic given `seed` *at any exec thread count*: samples are
/// decomposed into fixed chunks, each drawing from its own
/// exec::chunk_seed stream, and the per-chunk partials are folded in
/// ascending chunk order, so serial and parallel runs are bit-identical
/// when the budget does not trip. Requires samples >= 2. When `budget`
/// is given it is charged one unit per V evaluation; on exhaustion
/// sampling stops early and the partial estimate is returned with
/// complete == false (never fewer than two samples).
[[nodiscard]] MonteCarloShapley shapley_monte_carlo(
    const Game& game, std::uint64_t samples, std::uint64_t seed,
    const runtime::ComputeBudget* budget = nullptr);

/// Antithetic variant: permutations are drawn in (pi, reverse(pi)) pairs
/// and each pair's marginal contributions are averaged before entering
/// the estimator. For monotone games a player early in pi is late in the
/// reverse, so the pair's marginals are negatively correlated and the
/// standard error drops at equal V-evaluation cost. `samples` counts
/// permutations (must be even and >= 2). Budget and thread-count
/// determinism semantics as in shapley_monte_carlo, at pair granularity
/// (never fewer than one pair).
[[nodiscard]] MonteCarloShapley shapley_monte_carlo_antithetic(
    const Game& game, std::uint64_t samples, std::uint64_t seed,
    const runtime::ComputeBudget* budget = nullptr);

/// Which engine produced a Shapley vector.
enum class ShapleyEngine { kExact, kMonteCarlo };

[[nodiscard]] const char* to_string(ShapleyEngine engine) noexcept;

/// Outcome of the Shapley cascade.
struct ResilientShapley {
  std::vector<double> phi;
  /// Per-player standard errors; empty for the exact engine.
  std::vector<double> standard_error;
  ShapleyEngine engine = ShapleyEngine::kExact;
  std::uint64_t samples = 0;  ///< permutations drawn (Monte Carlo only)
  std::string note;           ///< degradation note, empty when exact
};

/// Shapley cascade: shapley_exact_budgeted under `budget`, degrading to
/// antithetic Monte Carlo with reported standard errors when the budget
/// trips or n is past kMaxTablePlayers. The Monte Carlo stage draws at
/// most 4096 permutations (seed 1, so the estimate is deterministic)
/// under `budget`, or under a fresh 50 ms grace deadline when `budget`
/// has already tripped, so a too-tight deadline still yields an
/// estimate of at least one antithetic pair.
[[nodiscard]] ResilientShapley resilient_shapley(
    const Game& game, const runtime::ComputeBudget& budget = {});

/// Normalises a value vector to shares of the total: out[i] = v[i] / sum(v).
/// For Shapley values this is the paper's phi-hat (Eq. 5), since
/// efficiency makes sum(phi) = V(N). If the total is ~0, returns equal
/// shares (the paper's "no value generated" edge: nothing to divide).
[[nodiscard]] std::vector<double> normalize_shares(
    const std::vector<double>& values);

}  // namespace fedshare::game
