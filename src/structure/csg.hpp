// Exact coalition-structure generation (CSG) over the subset lattice.
//
// The paper fixes the grand coalition N and studies how to share V(N);
// this module answers the next question (its Sec. 3.3 "evolution of the
// federation game", and the object of study in Guazzone et al.,
// arXiv:1309.2444): *which* partition of the facilities maximises total
// welfare sum_k V(B_k)? The optimal-partition DP runs over the subset
// lattice,
//
//   best[S] = max( V(S),
//                  max_{T : a(S) in T subsetneq S} V(T) + best[S \ T] )
//
// where a(S) is S's lowest member — anchoring the first block on a(S)
// visits every partition of S exactly once, so the sweep costs
// sum_S 2^(|S|-1) = (3^n + 1) / 2 - 2^n lattice edges instead of
// Bell(n) partitions. The sweep is streamed level by level (popcount
// order, every proper subset one level down) through exec::parallel_for:
// each mask owns its best/choice slots and its within-mask enumeration
// order is fixed, so the result — argmax structure included — is
// bit-identical at any thread count.
//
// Budget contract (runtime/budget.hpp charging rule): one unit per
// *distinct* V(S) materialisation, re-reads free — a TabularGame or a
// warm memo makes the whole DP free, and V(S) is drawn from whatever
// memo the Game carries (QuotientGame, model::Federation's raw table).
// When the budget trips the engine degrades
// to the best structure it has fully evaluated so far — the better of
// the grand coalition and the all-singletons partition (the two
// polynomial-cost candidates it always evaluates first) — tagged
// complete = false with the stop reason, never a wrong answer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/game.hpp"
#include "core/owen.hpp"
#include "runtime/budget.hpp"

namespace fedshare::structure {

/// How the CLI's coalition-structure section is computed.
enum class StructureMode {
  kOff,      ///< no structure analysis; byte-identical historical output
  kOptimal,  ///< exact CSG DP (this module)
  kHedonic,  ///< merge/split dynamics (structure/hedonic.hpp)
};

/// Parses "off" / "optimal" / "hedonic"; nullopt otherwise.
[[nodiscard]] std::optional<StructureMode> structure_mode_from_string(
    const std::string& text);

/// Outcome of a coalition-structure search.
struct StructureResult {
  /// The best partition found (always passes CoalitionStructure::
  /// validate; blocks ordered by their lowest member).
  game::CoalitionStructure structure;
  /// sum_k V(B_k), accumulated in the canonical fold order (see
  /// structure_welfare). When complete == false this is the welfare of
  /// the blocks whose values materialised before the trip — a lower
  /// bound for nonnegative games, never an overstatement.
  double welfare = 0.0;
  /// True when the DP ran to completion (the structure is provably
  /// optimal); false when the budget tripped and `structure` is the
  /// degraded incumbent.
  bool complete = true;
  /// Why the budget tripped (kNone when complete).
  runtime::StopReason stop = runtime::StopReason::kNone;
  /// Budget units actually charged — distinct V(S) materialisations
  /// (0 for an already-tabulated game).
  std::uint64_t coalitions_evaluated = 0;
  /// First-block candidates the DP examined ((3^n + 1)/2 - 2^n + 2^n - 1
  /// when complete; 0 when degraded before the sweep).
  std::uint64_t splits_considered = 0;
};

/// Canonical welfare fold of a partition: blocks sorted by lowest
/// member, values accumulated back to front (V(B_1) + (V(B_2) + (...)))
/// — exactly the floating-point order the DP recurrence uses, so a
/// structure's recomputed welfare is bitwise equal to the DP's optimum.
/// Validates `partition` against the game first.
[[nodiscard]] double structure_welfare(
    const game::Game& game, const game::CoalitionStructure& partition);

/// Welfare-optimal coalition structure via the anchored subset-lattice
/// DP. Requires 1 <= n <= kMaxCsgPlayers (core/limits.hpp): the sweep
/// walks ~3^n / 2 lattice edges.
/// Deterministic — bit-identical structure and welfare at any exec
/// thread count; see the budget contract above for degraded results.
[[nodiscard]] StructureResult optimal_structure(
    const game::Game& game, const runtime::ComputeBudget& budget = {});

/// Brute-force reference: enumerates all Bell(n) set partitions
/// (restricted-growth recursion) and folds each candidate's welfare in
/// the same canonical order as the DP, so the two engines' optima agree
/// bitwise. Requires 1 <= n <= kMaxPartitionPlayers. `splits_considered`
/// reports the number of partitions enumerated.
[[nodiscard]] StructureResult brute_force_structure(const game::Game& game);

}  // namespace fedshare::structure
