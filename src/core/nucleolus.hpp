// Nucleolus of a TU game (Sec. 3.2.3 of the paper).
//
// Computed with the classical iterative (Maschler) scheme: solve the
// least-core LP, permanently fix the coalitions whose excess is maximal
// in every optimal solution, and recurse on the rest until the
// allocation is unique. If the core is non-empty the result lies in the
// core (the paper's stated property, which our tests assert).
//
// Deciding "tight in every optimum" classically takes one auxiliary LP
// per active coalition per round (max x(S) with eps pinned). Most of
// those LPs are provably redundant, so each round first reads the
// answer off the least-core optimum it already has (after Derks &
// Kuipers 1997 and Benedek, Fliege & Nguyen 2021):
//  * slack filter — a row slack by more than the tolerance at the
//    optimum is not tight in every optimum: it stays active, no LP;
//  * dual filter — a row whose dual is positive by a margin above the
//    engine's tolerance is tight in every optimum (complementary
//    slackness): it is fixed, no LP;
//  * span filter — efficiency, the fixed rows and the dual-tight rows
//    hold as equalities on the optimal face, so a zero-slack row in
//    their span is tight on all of it: it is fixed, no LP;
//  * batched release — the remaining zero-slack, zero-dual rows share
//    capped-slack LPs (max sum y_S, 0 <= y_S <= 1) that release every
//    row some optimum leaves slack and fix the rest once the optimum
//    reaches zero; a pass that stalls falls back to per-row probes;
//  * rank decides uniqueness — the fixed rows are the implicit
//    equalities of the round's optimal face, which cut out its affine
//    hull, so the allocation is unique exactly when they and efficiency
//    reach full rank; below it the next round runs, with no LP asking.
// Each step reaches the decision the per-row LP would, so the fixed
// set, every round's LP, and the result are the unfiltered scheme's.
// Across rounds, an active row in the span of efficiency and the fixed
// rows has a constant excess on every later LP's feasible region; it is
// retired at that excess with no LP (Maschler, Peleg & Shapley 1979),
// where the classical scheme would spend a round on it, and the level
// list names it as that round would.
//
// The LPs do not carry every excess row. They run over a working set
// (row generation, after Hallefjord, Helming & Jørnsten 1995), seeded
// with the per-type "one member" and "all but one" rows, which with
// efficiency bound every share to a box. Each LP — least core, release
// pass and aux-max probe — runs to closure: one scan of the
// V table finds the rows its optimum violates, the most violated join,
// and it re-solves until none is violated. A relaxation optimum that
// violates no row is optimal for the full LP, so the answer is the
// full-row loop's up to rounding; a final scan of the whole table
// confirms that no row outside the working set has an excess above the
// last level (else solved == false). At hetero n = 10 the LPs carry a
// few dozen of the 1022 rows. Every LP goes through lp::solve started
// at the point the loop holds (the last optimum, or the equal split
// before the first). The equalities hold there (efficiency, the fixed
// rows, the eps pin), so the engine substitutes them out, and phase 1
// repairs only the rows that point violates. SolverKind::kRevised,
// kept as a cross-check, solves each of them cold.
//
// One loop runs the scheme, over weighted excess rows: one row per
// *orbit* of a PlayerPartition, with per-type share variables x_t and
// the row of orbit c reading sum_t c_t * x_t + eps >= V(c).
//  * dense      — nucleolus(game) runs it on the all-singletons
//    partition, where every orbit is a coalition mask and the weights
//    are its bits: 2^n - 2 rows.
//  * orbit-row  — nucleolus_quotient runs it on the partition of a
//    symmetric game: prod_t (m_t + 1) - 2 rows. The nucleolus of a
//    symmetric game is symmetric (swapping two same-type players
//    permutes the excess multiset, and the nucleolus is unique), so
//    restricting the LPs to the symmetric subspace loses nothing and the
//    per-type optimum expands to the per-player allocation with members
//    of a type sharing equally. Counting orbits, not coalitions, it
//    reaches typed federations far past n = 15.
// Both stop at kMaxExcessRows. least_core is the dense loop's first round.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/symmetry.hpp"
#include "lp/simplex.hpp"

namespace fedshare::game {

/// Result of a nucleolus computation.
struct NucleolusResult {
  bool solved = false;             ///< all LPs solved to optimality
  std::vector<double> allocation;  ///< the nucleolus payoff vector
  /// The epsilon level of each round of the classical scheme, in order:
  /// the LP rounds' optima and the retired rows' constant excesses.
  std::vector<double> levels;
  /// Introspection for the bench/report layers (filled by both
  /// formulations): excess rows of the formulation (2^n - 2, or the
  /// proper orbits), of which the LPs carry a working set; LPs solved
  /// across the scheme, every closure re-solve included; and total
  /// simplex pivots.
  std::uint64_t excess_rows = 0;
  std::uint64_t lps_solved = 0;
  std::uint64_t pivots = 0;
};

/// "<rows> excess rows exceed kMaxExcessRows = 32768": the one refusal
/// of nucleolus, nucleolus_quotient, least_core and compare_schemes past
/// their row ceiling (core/limits.hpp).
[[nodiscard]] std::string excess_rows_refusal(std::uint64_t rows);

/// Computes the nucleolus on the dense formulation (one excess row per
/// coalition). Games past kMaxExcessRows (n > 15) are refused with
/// std::invalid_argument. `options` (in particular a ComputeBudget)
/// reach every internal LP. When the budget trips mid-scheme the result
/// comes back with solved == false rather than hanging; callers degrade
/// (the CLI drops the nucleolus row with a resilience note).
[[nodiscard]] NucleolusResult nucleolus(
    const Game& game, const lp::SimplexOptions& options = {});

/// Orbit-row nucleolus of a game quotiented by a player partition. The
/// base game must actually be symmetric under the partition (the
/// QuotientGame contract; see verified_partition). Orbit values come
/// from the QuotientGame's orbit memo — with options.budget set they
/// are materialised under the budget (one unit per orbit row) and a
/// trip returns solved == false, the PR 1 fallback-cascade hook.
/// Refuses partitions past kMaxExcessRows with std::invalid_argument.
[[nodiscard]] NucleolusResult nucleolus_quotient(
    const QuotientGame& game, const lp::SimplexOptions& options = {});

}  // namespace fedshare::game
