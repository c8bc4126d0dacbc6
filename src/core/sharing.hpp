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
#include <optional>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/shapley.hpp"
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
/// when V(N) is ~0. Requires at most kMaxExcessRows excess rows.
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
  /// Whether the payoff vector lies in the core; nullopt when it was
  /// not checked (no coalition table, n past kMaxCorePlayers, or a
  /// Monte-Carlo Shapley estimate, whose verdict would be the estimate's).
  std::optional<bool> in_core;
};

/// "yes", "no", or "n/a" when core membership was not checked.
[[nodiscard]] const char* in_core_label(const SchemeOutcome& outcome) noexcept;

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

/// A scheme (or the core check) a comparison did not answer, and why.
struct SkippedScheme {
  std::string scheme;  ///< "nucleolus", "banzhaf" or "core membership"
  /// e.g. "deadline", or a refusal naming the ceiling (core/limits.hpp)
  std::string reason;
  /// True when the instance's size alone rules it out (the same for
  /// every run at this n); false when the budget or a solver failure
  /// cut it short.
  bool size_limit = false;

  /// "<scheme>: skipped (<reason>)".
  [[nodiscard]] std::string note() const;
};

/// Every sharing scheme of one game, plus what was left out and why.
struct SchemeComparison {
  /// Report order: Shapley, the proportional schemes given weights,
  /// equal split, nucleolus, Banzhaf (minus the skipped ones).
  std::vector<SchemeOutcome> outcomes;
  /// Every scheme left without a row (and an unchecked core), in report
  /// order.
  std::vector<SkippedScheme> skipped;
  ShapleyEngine shapley_engine = ShapleyEngine::kExact;
  std::uint64_t shapley_samples = 0;
  double shapley_max_se = 0.0;  ///< max standard error (Monte Carlo only)
  /// Empty on an exact Shapley row; otherwise why it is an estimate.
  std::string shapley_note;

  /// One line per degradation (none on a clean run): "shapley: <note>",
  /// then each skip's note, e.g. "nucleolus: skipped (deadline)".
  [[nodiscard]] std::vector<std::string> notes() const;
  /// True when the budget or a solver failure degraded a scheme (Monte
  /// Carlo Shapley, or a skip that is not a size limit).
  [[nodiscard]] bool cut_short() const noexcept;
};

/// Computes every scheme on `game` — the one comparison body behind the
/// CLI report, serve answers, outage scenarios, benches and examples.
/// `availability_weights` and `consumption_weights` feed the two
/// proportional schemes; pass empty vectors to skip those schemes.
///
/// Everything runs under `lp_options.budget` (null = unlimited) and
/// degrades instead of throwing: the game is tabulated with
/// tabulate_budgeted (a TabularGame is borrowed, not copied); if that
/// trips, the nucleolus, Banzhaf and the core checks are skipped and
/// Shapley runs Monte Carlo on `game` directly. Shapley follows
/// resilient_shapley, and a Monte-Carlo row leaves its core unchecked.
/// The nucleolus runs the orbit-row quotient formulation when
/// `partition` is non-trivial (the game must be symmetric under it; see
/// verified_partition), the dense formulation otherwise; either one
/// past kMaxExcessRows, a budget trip or a failed LP chain becomes a
/// recorded skip. Core membership is checked for n <= kMaxCorePlayers
/// (core/limits.hpp) and is a size skip past it. `lp_options` (engine,
/// observer) reach every nucleolus LP; `info`, when non-null, receives
/// the quotient-path telemetry.
[[nodiscard]] SchemeComparison compare_schemes(
    const Game& game, const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const lp::SimplexOptions& lp_options = {},
    const PlayerPartition* partition = nullptr,
    QuotientNucleolusInfo* info = nullptr);

}  // namespace fedshare::game
