// Value-sharing schemes (Sec. 3.2 of the paper).
//
// All schemes produce a share vector s with sum(s) = 1; the payoff of
// facility i is then s_i * V(N). The paper compares:
//   * the normalised Shapley value phi-hat (Eq. 5),
//   * availability-proportional sharing pi-hat (Eq. 6),
//   * consumption-proportional sharing rho-hat (Eq. 7),
//   * equal split, and
//   * the nucleolus.
// The model layer supplies the weight vectors for the proportional
// schemes (L_i * R_i for availability; allocated units for consumption).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/symmetry.hpp"
#include "lp/simplex.hpp"

namespace fedshare::game {

/// Identifiers for the sharing schemes compared throughout the benches.
enum class Scheme {
  kShapley,
  kProportionalAvailability,
  kProportionalConsumption,
  kEqual,
  kNucleolus,
  kBanzhaf,
};

/// Human-readable scheme name.
[[nodiscard]] const char* to_string(Scheme scheme) noexcept;

/// Equal split: 1/n each. Requires n >= 1.
[[nodiscard]] std::vector<double> equal_shares(int num_players);

/// Proportional shares from non-negative weights: s_i = w_i / sum(w).
/// If all weights are ~0, falls back to equal shares. Negative weights
/// throw std::invalid_argument.
[[nodiscard]] std::vector<double> proportional_shares(
    const std::vector<double>& weights);

/// Normalised Shapley shares of `game` (phi-hat, Eq. 5).
[[nodiscard]] std::vector<double> shapley_shares(const Game& game);

/// Nucleolus-based shares (allocation / V(N)); falls back to equal shares
/// when V(N) is ~0. Requires n <= 10.
[[nodiscard]] std::vector<double> nucleolus_shares(const Game& game);

/// Variant threading LP solver options (engine choice, tolerance,
/// budget) into the nucleolus scheme's internal LPs.
[[nodiscard]] std::vector<double> nucleolus_shares(
    const Game& game, const lp::SimplexOptions& options);

/// One scheme's outcome in a comparison run.
struct SchemeOutcome {
  Scheme scheme;
  std::vector<double> shares;    ///< sums to 1
  std::vector<double> payoffs;   ///< shares * V(N)
  bool in_core = false;          ///< payoff vector lies in the core
};

/// Computes every scheme on `game`. `availability_weights` and
/// `consumption_weights` feed the two proportional schemes; pass empty
/// vectors to skip those schemes. Core membership of each payoff vector
/// is checked when n <= 16.
[[nodiscard]] std::vector<SchemeOutcome> compare_schemes(
    const Game& game, const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights);

/// Variant threading LP solver options into the nucleolus scheme (the
/// only scheme that solves LPs). The CLI's --lp-solver flag lands here.
[[nodiscard]] std::vector<SchemeOutcome> compare_schemes(
    const Game& game, const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const lp::SimplexOptions& lp_options);

/// Telemetry from the quotient-nucleolus path of a comparison run, for
/// the CLI's --cache-stats section and the benches.
struct QuotientNucleolusInfo {
  bool attempted = false;  ///< a non-trivial partition was supplied
  bool used = false;       ///< the orbit-row formulation produced the row
  std::uint64_t orbit_rows = 0;   ///< excess rows per probe LP (quotient)
  std::uint64_t dense_rows = 0;   ///< rows the dense formulation would carry
  std::uint64_t lps_solved = 0;
  std::uint64_t pivots = 0;
  std::uint64_t orbit_hits = 0;    ///< orbit-cache hits while solving
  std::uint64_t orbit_misses = 0;  ///< orbit values actually materialised
};

/// The nucleolus row of a scheme comparison, or why there is none.
struct NucleolusScheme {
  /// allocation / V(N) (equal shares when V(N) is ~0); empty when the
  /// scheme has no row.
  std::vector<double> shares;
  /// Set when the game's size alone rules the nucleolus out (no
  /// non-trivial partition and n past dense_nucleolus_fits), e.g.
  /// "n = 11 exceeds the dense ceiling of 10; use --symmetry
  /// auto|exact". Empty shares with an empty reason mean the LP chain
  /// did not finish: a budget trip or a solver failure.
  std::string size_limit;
};

/// The nucleolus scheme of every scheme comparison (compare_schemes
/// and runtime::compare_schemes_resilient): the orbit-row quotient
/// formulation when `partition` is non-trivial (rows scale with the
/// orbit count, no n ceiling), the dense 2^n-row formulation otherwise
/// (within dense_nucleolus_fits only). An options.budget that has
/// already tripped skips the LPs. `info`, when non-null, receives the
/// quotient-path telemetry.
[[nodiscard]] NucleolusScheme nucleolus_scheme(
    const TabularGame& tab, const lp::SimplexOptions& options,
    const PlayerPartition* partition, QuotientNucleolusInfo* info = nullptr);

/// Partition-aware variant: with a non-trivial `partition` (and a game
/// that is symmetric under it — the caller's contract, see
/// verified_partition) the nucleolus runs on the orbit-row quotient
/// formulation, lifting the scheme past the dense n <= 10 ceiling; an
/// all-singletons partition (or nullptr) falls back to the dense path,
/// byte-identical to the 4-argument overload. Past the dense ceiling
/// without a partition the nucleolus row is left out (see
/// nucleolus_scheme for the reason); a failed LP chain throws. `info`,
/// when non-null, receives the quotient-path telemetry.
[[nodiscard]] std::vector<SchemeOutcome> compare_schemes(
    const Game& game, const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const lp::SimplexOptions& lp_options, const PlayerPartition* partition,
    QuotientNucleolusInfo* info = nullptr);

}  // namespace fedshare::game
