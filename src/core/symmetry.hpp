// Symmetry-quotient game engine.
//
// The paper's numerical study builds federations from a handful of
// facility *types*: many providers share identical parameters, so V(S)
// depends only on how many members of each type S contains. This module
// exploits that structure. A PlayerPartition groups interchangeable
// players into types; the OrbitIndex maps each of the 2^n coalition
// masks to its orbit — the type-count vector (c_1, ..., c_T) — of which
// there are only prod_t (m_t + 1). A QuotientGame evaluates the base
// game once per orbit (on a canonical representative mask) and expands
// orbit values back to the full lattice and to per-player Shapley values
// (symmetric players provably receive equal Shapley payoffs), with
// multiplicity weights.
//
// Detection is layered: model::Federation proposes a candidate
// partition from exact facility-parameter equality, and the generic
// Game-level oracle here (verified_partition) checks
// candidate symmetries on sampled coalitions — swapping two same-type
// players across a random coalition boundary must leave V unchanged —
// splitting any type that fails. --symmetry=exact trusts the candidate;
// --symmetry=auto runs the oracle first.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "exec/value_cache.hpp"
#include "runtime/budget.hpp"

namespace fedshare::game {

/// How coalition symmetry is exploited by the model/CLI layers.
enum class SymmetryMode {
  kOff,    ///< never quotient; byte-identical to the historical paths
  kAuto,   ///< detect types, then verify them with the sampling oracle
  kExact,  ///< trust the detected types without oracle verification
};

/// Parses "off" / "auto" / "exact"; nullopt otherwise.
[[nodiscard]] std::optional<SymmetryMode> symmetry_mode_from_string(
    const std::string& text);
[[nodiscard]] const char* to_string(SymmetryMode mode);

/// A partition of players 0..n-1 into interchangeable types. Types are
/// numbered 0..T-1 in order of their first member.
class PlayerPartition {
 public:
  /// Every player its own type (the "no symmetry" partition).
  static PlayerPartition identity(int num_players);

  /// From a type label per player; labels are renumbered to
  /// first-occurrence order, so any labelling scheme works.
  static PlayerPartition from_type_of(const std::vector<int>& type_of);

  [[nodiscard]] int num_players() const noexcept {
    return static_cast<int>(type_of_.size());
  }
  [[nodiscard]] int num_types() const noexcept {
    return static_cast<int>(members_.size());
  }
  [[nodiscard]] int type_of(int player) const {
    return type_of_[static_cast<std::size_t>(player)];
  }
  /// Members of type t, ascending.
  [[nodiscard]] const std::vector<int>& members(int type) const {
    return members_[static_cast<std::size_t>(type)];
  }
  [[nodiscard]] int multiplicity(int type) const {
    return static_cast<int>(members_[static_cast<std::size_t>(type)].size());
  }
  /// True when every type is a singleton (quotienting saves nothing).
  [[nodiscard]] bool is_trivial() const noexcept {
    return num_types() == num_players();
  }
  /// prod_t (m_t + 1): the number of orbits, i.e. distinct V values.
  [[nodiscard]] std::uint64_t orbit_count() const noexcept;

 private:
  std::vector<int> type_of_;
  std::vector<std::vector<int>> members_;
};

/// Bijection between orbit ids and type-count vectors, plus the mask
/// canonicalisation. Orbit ids are mixed-radix: id = sum_t c_t *
/// stride_t with stride_t = prod_{u<t} (m_u + 1), so the empty orbit is
/// 0 and the grand orbit is orbit_count() - 1.
class OrbitIndex {
 public:
  explicit OrbitIndex(PlayerPartition partition);

  [[nodiscard]] const PlayerPartition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] int num_players() const noexcept {
    return partition_.num_players();
  }
  [[nodiscard]] int num_types() const noexcept {
    return partition_.num_types();
  }
  [[nodiscard]] std::uint64_t orbit_count() const noexcept {
    return orbit_count_;
  }

  /// The orbit id of a coalition mask (per-type member popcounts).
  [[nodiscard]] std::uint64_t orbit_of(std::uint64_t mask) const noexcept;

  /// Type counts (c_1, ..., c_T) of an orbit.
  [[nodiscard]] std::vector<int> counts(std::uint64_t orbit) const;

  /// counts() into a caller-owned buffer (resized to num_types()); the
  /// allocation-free flavour the orbit-row LP builders iterate with.
  void counts_into(std::uint64_t orbit, std::vector<int>& out) const;

  /// True for the orbits that carry an excess row in the quotient
  /// nucleolus LP: neither the empty orbit (id 0) nor the grand orbit.
  [[nodiscard]] bool is_proper(std::uint64_t orbit) const noexcept {
    return orbit != 0 && orbit != orbit_count_ - 1;
  }

  /// The canonical representative mask: the c_t lowest-indexed members
  /// of each type.
  [[nodiscard]] std::uint64_t representative(std::uint64_t orbit) const;

  /// Total player count |c| of an orbit (the lattice level).
  [[nodiscard]] int level(std::uint64_t orbit) const noexcept {
    return level_[static_cast<std::size_t>(orbit)];
  }

  /// The orbit with one more / one fewer member of `type`, or nullopt
  /// at the boundary. These are the quotient-lattice edges used by the
  /// warm-start chains and the monotone closure.
  [[nodiscard]] std::optional<std::uint64_t> successor(std::uint64_t orbit,
                                                      int type) const;
  [[nodiscard]] std::optional<std::uint64_t> predecessor(std::uint64_t orbit,
                                                         int type) const;

  /// C(multiplicity(type), k); exact in double for n <= 24.
  [[nodiscard]] double choose(int type, int k) const;

 private:
  PlayerPartition partition_;
  std::vector<std::uint64_t> type_mask_;   // member bits per type
  std::vector<std::uint64_t> stride_;      // mixed-radix strides
  std::vector<int> level_;                 // |c| per orbit
  std::vector<std::vector<double>> binom_; // binom_[t][k] = C(m_t, k)
  std::uint64_t orbit_count_ = 1;
};

/// The all-singletons index of an n-player game, PlayerPartition::
/// identity(n), whose orbit ids are the coalition masks: built on first
/// use for each n and kept, as it never changes. n past
/// limits::kMaxTablePlayers (or negative) throws std::invalid_argument.
[[nodiscard]] const OrbitIndex& identity_index(int n);

/// Oracle-refined partition: each type of `candidate` is tested member
/// by member against its first member; members that fail any sampled
/// swap are split out as singleton types. The result is always safe to
/// quotient with (at worst the identity partition).
[[nodiscard]] PlayerPartition verified_partition(
    const Game& game, const PlayerPartition& candidate, int samples = 64,
    std::uint64_t seed = 0x5eedULL, double tolerance = 1e-9);

/// The monotone closure, in place: V'(o) = max(V(o), max_t V'(o - e_t))
/// over the orbit's per-type predecessors, so a coalition is worth at
/// least any of its subsets (it can always leave a member's resources
/// unused). Orbits are visited in ascending id — every predecessor has
/// a smaller id — and types in ascending order; the empty orbit keeps
/// its value. On PlayerPartition::identity(n) orbit ids are masks and
/// types are players, so this is the per-mask max sequence raw(S), then
/// V'(S \ {i}) for i ascending, and it runs that way: over the set bits
/// of each mask, with no per-digit division. For a symmetric game the
/// closed orbit table expands to the closed full table (the subsets of
/// an orbit's masks cover exactly the count vectors below it).
/// Idempotent.
void close_monotone(const OrbitIndex& index, std::vector<double>& values);

/// Expands a per-orbit value table to the full 2^n lattice. Parallel
/// copy; bit-identical at any thread count.
[[nodiscard]] TabularGame expand_orbit_table(
    const OrbitIndex& index, const std::vector<double>& orbit_values);

/// Exact Shapley values straight from a per-orbit table via the
/// multiplicity-weighted quotient formula
///   phi_t = sum_c C(m_t - 1, c_t) prod_{u != t} C(m_u, c_u)
///           * w(|c|) * (V(c + e_t) - V(c)),
/// one value per type, replicated to that type's members. O(T * #orbits)
/// instead of O(n * 2^n).
[[nodiscard]] std::vector<double> shapley_from_orbit_table(
    const OrbitIndex& index, const std::vector<double>& orbit_values);

/// Expands a per-type vector to a per-player vector (members of a type
/// all receive that type's entry). The read-back half of the orbit-row
/// nucleolus: symmetric players provably receive equal nucleolus
/// payoffs, so the quotient LP's per-type shares ARE the allocation.
[[nodiscard]] std::vector<double> expand_type_values(
    const PlayerPartition& partition, const std::vector<double>& per_type);

/// A game quotiented by a player partition: V is evaluated once per
/// orbit (on the canonical representative, memoized in one
/// exec::ValueCache indexed by orbit id) and read back for every mask in
/// the orbit. The base game must actually be symmetric under the
/// partition for the quotient to be exact — detection/verification is
/// the caller's job (see verified_partition).
class QuotientGame final : public Game {
 public:
  /// `base` is not owned and must outlive this game.
  QuotientGame(const Game& base, PlayerPartition partition);

  [[nodiscard]] int num_players() const override;
  [[nodiscard]] double value(Coalition coalition) const override;
  /// Charging rule: one unit per distinct *orbit* materialised; re-reads
  /// anywhere in the orbit are free.
  [[nodiscard]] std::optional<double> value_budgeted(
      Coalition coalition,
      const runtime::ComputeBudget& budget) const override;

  [[nodiscard]] const OrbitIndex& orbits() const noexcept { return index_; }

  /// All orbit values, evaluated in parallel through the memo (each
  /// orbit writes its own slot; bit-identical at any thread count).
  [[nodiscard]] std::vector<double> orbit_values() const;

  /// Budgeted variant: charges one unit per orbit not already cached;
  /// nullopt when the budget trips (a partial orbit table is useless,
  /// but the orbits it did evaluate stay memoized).
  [[nodiscard]] std::optional<std::vector<double>> orbit_values_budgeted(
      const runtime::ComputeBudget& budget) const;

  /// Per-player Shapley values via the quotient formula.
  [[nodiscard]] std::vector<double> shapley() const;

  /// Orbit-cache statistics (LPs actually solved = misses).
  [[nodiscard]] const exec::ValueCache& cache() const noexcept {
    return cache_;
  }

 private:
  const Game* base_;
  OrbitIndex index_;
  mutable exec::ValueCache cache_;
};

}  // namespace fedshare::game
