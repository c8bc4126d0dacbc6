// Coalition-structure generation on the symmetry quotient.
//
// For a game that is symmetric under a PlayerPartition (T types with
// multiplicities m_t), a block's value depends only on its type-count
// vector, so the optimal-partition search collapses from set partitions
// of n players to multiset partitions of the multiplicity vector m:
//
//   best[c] = max_{0 < d <= c} V(d) + best[c - d],   best[0] = 0,
//
// over the orbit lattice (core/symmetry.hpp) — prod_t (m_t + 1) states
// instead of 2^n masks, with V(d) evaluated once per orbit through the
// QuotientGame's orbit memo. Any concrete assignment of players to a
// block's counts yields the same welfare (that is what symmetry means),
// so the engine expands the count-vector solution to one canonical
// CoalitionStructure (lowest-indexed unused members of each type) whose
// welfare provably equals the full-lattice CSG optimum.
//
// Budget contract: one unit per distinct *orbit* materialised (the
// quotient charging rule); on a trip the engine degrades to the better
// of grand coalition and all-singletons, tagged complete = false.
#pragma once

#include <cstdint>
#include <vector>

#include "core/symmetry.hpp"
#include "runtime/budget.hpp"
#include "structure/csg.hpp"

namespace fedshare::structure {

/// Outcome of the typed CSG. `structure`/`welfare`/`complete`/`stop`
/// follow StructureResult's contract; `block_counts` is the typed
/// solution itself — one type-count vector per block, aligned with
/// `structure.unions`.
struct TypedStructureResult {
  game::CoalitionStructure structure;
  std::vector<std::vector<int>> block_counts;
  double welfare = 0.0;
  bool complete = true;
  runtime::StopReason stop = runtime::StopReason::kNone;
  /// Orbits in the quotient lattice (the DP's state count).
  std::uint64_t orbits = 0;
  /// (first part, remainder) candidates the DP examined.
  std::uint64_t splits_considered = 0;
};

/// Welfare-optimal coalition structure of a symmetric game via the
/// orbit-lattice DP. The QuotientGame's partition must be a sound
/// symmetry of the base game (detection/verification is the caller's
/// job, as for every quotient consumer). Deterministic at any exec
/// thread count.
[[nodiscard]] TypedStructureResult optimal_structure_typed(
    const game::QuotientGame& game,
    const runtime::ComputeBudget& budget = {});

}  // namespace fedshare::structure
