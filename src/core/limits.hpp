// Size contract: every ceiling on the size of an exponential step.
//
// The cooperative game of a federation is exponential in its number of
// players n: a 2^n coalition table, 3^n disjoint pairs, Bell(n)
// partitions, n! orders. Each entry below is the largest size one such
// resource accepts, and every guard in src/ reads its entry instead of
// a literal. A step past its ceiling is refused (std::invalid_argument),
// or, where a report section can go without it, skipped or noted; either
// way the message comes from refusal() and names the entry:
// "<where>: n = 25 exceeds kMaxTablePlayers = 24". The nucleolus's row
// ceiling keeps its own message, excess_rows_refusal (core/nucleolus.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace fedshare::limits {

/// One ceiling: the entry's name, as messages print it, and its value.
struct Limit {
  std::string_view name;
  std::int64_t value;
};

/// A 2^n table of doubles (128 MiB at n = 24): TabularGame, tabulate,
/// the federation's V(S) memo and table, all_coalitions, the lattice
/// kernels, exact Shapley, max_core_violation, expand_orbit_table and
/// quotient_game's table over unions.
inline constexpr Limit kMaxTablePlayers{"kMaxTablePlayers", 24};

/// Scans of every player (pair) over all 2^n coalitions, n^2 2^n reads:
/// convexity, monotonicity, interaction_index and owen_value.
inline constexpr Limit kMaxPairScanPlayers{"kMaxPairScanPlayers", 20};

/// Every disjoint pair of coalitions, 3^n: superadditivity.
inline constexpr Limit kMaxDisjointPairPlayers{"kMaxDisjointPairPlayers",
                                               16};

/// Core membership, one 2^n excess scan per scheme: compare_schemes
/// checks it up to here and records a skip past it.
inline constexpr Limit kMaxCorePlayers{"kMaxCorePlayers", 16};

/// The coalition-structure DP, about 3^n / 2 lattice edges:
/// optimal_structure.
inline constexpr Limit kMaxCsgPlayers{"kMaxCsgPlayers", 18};

/// Every partition of the players, Bell(n): brute_force_structure.
inline constexpr Limit kMaxPartitionPlayers{"kMaxPartitionPlayers", 12};

/// Every order of the players, n!: shapley_permutations.
inline constexpr Limit kMaxPermutationPlayers{"kMaxPermutationPlayers", 10};

/// The sampled structural audit (verify::audit_game); past it the audit
/// records a note and checks nothing.
inline constexpr Limit kMaxAuditPlayers{"kMaxAuditPlayers", 30};

/// Excess rows of one nucleolus or least-core chain, all of which each
/// closure scan reads: 2^n - 2 dense (n <= 15), or the proper orbits.
inline constexpr Limit kMaxExcessRows{"kMaxExcessRows",
                                      std::int64_t{1} << 15};

/// Blocks of a partition whose every collection of two or more (2^B)
/// the hedonic merge phase enumerates: hedonic_merge_split. Past it the
/// phase merges pairs only and notes why.
inline constexpr Limit kMaxMergeEnumerationBlocks{
    "kMaxMergeEnumerationBlocks", 16};

/// Facilities of one federation on the report, serve, settlement and
/// simulated-game paths; also the serve roster's slot count, whose
/// 2^kMaxFacilities memo the service holds by value.
inline constexpr Limit kMaxFacilities{"kMaxFacilities", 12};

/// Whether `size` is past `limit`.
[[nodiscard]] constexpr bool exceeds(std::int64_t size, Limit limit) noexcept {
  return size > limit.value;
}

/// "<where>: n = <n> exceeds <name> = <value>".
[[nodiscard]] std::string refusal(std::string_view where, std::int64_t n,
                                  Limit limit);

/// Throws std::invalid_argument(refusal(where, n, limit)) when `n`
/// exceeds `limit`.
void require(std::string_view where, std::int64_t n, Limit limit);

}  // namespace fedshare::limits
