// Federation: the top-level model object binding providers and demand.
//
// Wraps a LocationSpace and a DemandProfile into the coalitional game of
// Sec. 3 and exposes the weight vectors the sharing schemes need. This is
// the main entry point of the library's public API:
//
//   auto space = model::LocationSpace::disjoint({{"PLC", 100, 80},
//                                                {"PLE", 400, 60},
//                                                {"PLJ", 800, 20}});
//   model::Federation fed(std::move(space),
//                         model::DemandProfile::uniform(40, 250));
//   auto shares = game::shapley_shares(fed.build_game());
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "core/game.hpp"
#include "core/symmetry.hpp"
#include "exec/value_cache.hpp"
#include "runtime/budget.hpp"
#include "model/demand.hpp"
#include "model/location_space.hpp"
#include "model/value.hpp"

namespace fedshare::model {

/// A federation of facilities facing a demand profile.
class Federation {
 public:
  Federation(LocationSpace space, DemandProfile demand);

  [[nodiscard]] int num_facilities() const noexcept {
    return space_.num_facilities();
  }
  [[nodiscard]] const LocationSpace& space() const noexcept { return space_; }
  [[nodiscard]] const DemandProfile& demand() const noexcept {
    return demand_;
  }

  /// V(S) computed by the allocation engine (see model/value.hpp),
  /// closed under monotonicity: a coalition can always ignore a
  /// member's resources, so V(S) = max(greedy(S), max_i V(S \ {i})).
  /// The greedy water-filling heuristic occasionally dips when extra
  /// pools mislead it (V({0,4}) > V({0,1,4}) on the PlanetLab-style
  /// config); the closure (game::close_monotone) makes V monotone by
  /// construction. Reads the closed table build_game() returns, built
  /// once on first use (so num_facilities() <= kMaxTablePlayers) and
  /// shared by copies like the memo.
  [[nodiscard]] double value(game::Coalition coalition) const;

  /// The greedy allocation value without the monotone closure — the
  /// direct output of the water-filling heuristic, memoised in the
  /// instance's 2^n-entry table so each coalition's allocation is
  /// solved exactly once no matter how many tabulations, oracle probes
  /// or threads ask for it. This is what the symmetry oracle samples
  /// and what every tabulation closes. Requires num_facilities() <=
  /// kMaxTablePlayers (core/limits.hpp).
  [[nodiscard]] double raw_value(game::Coalition coalition) const;

  /// The instance's raw V(S) memo (hit/miss statistics for benches).
  /// Allocated by its first reader, like the closed table.
  [[nodiscard]] const exec::ValueCache& value_cache() const {
    return memo();
  }

  /// The federation's TU game, tabulated (all 2^n coalition values).
  /// Requires num_facilities() <= kMaxTablePlayers.
  [[nodiscard]] game::TabularGame build_game() const;

  /// The player partition the symmetry engine would quotient with:
  /// identity for kOff; config_symmetry_partition() for kExact; the
  /// oracle-verified refinement of it (sampled on raw_value) for kAuto.
  [[nodiscard]] game::PlayerPartition symmetry_partition(
      game::SymmetryMode mode) const;

  /// Symmetry-aware tabulation: build_game_budgeted(mode) under an
  /// unlimited budget. kOff is build_game().
  [[nodiscard]] game::TabularGame build_game(game::SymmetryMode mode) const;

  /// The one tabulation path. With a trivial symmetry_partition(mode)
  /// every mask writes its raw_value() into its own slot (one budget
  /// unit per mask) and the table is closed with game::close_monotone
  /// on the identity partition. Otherwise the greedy allocator runs
  /// once per orbit (one unit per orbit: the charging rule's "distinct
  /// V(S)" collapses to distinct orbits), the same closure runs on the
  /// orbit lattice (equivalent to the full-lattice closure for a
  /// symmetric game), and the table expands to all 2^n masks. Returns
  /// nullopt when the budget trips.
  [[nodiscard]] std::optional<game::TabularGame> build_game_budgeted(
      game::SymmetryMode mode, const runtime::ComputeBudget& budget) const;

  /// Eq. 6 weights: L_i * R_i * T_i per facility.
  [[nodiscard]] std::vector<double> availability_weights() const;

  /// Eq. 7 weights: units consumed per facility under the grand
  /// coalition's optimal allocation.
  [[nodiscard]] std::vector<double> consumption_weights() const;

 private:
  /// The tables shared by copies: the raw V(S) memo and value()'s
  /// closed table, each built by its first caller.
  struct Tables {
    std::once_flag memo_once;
    std::optional<exec::ValueCache> memo;
    std::once_flag closed_once;
    std::optional<game::TabularGame> closed;
  };

  [[nodiscard]] exec::ValueCache& memo() const;

  LocationSpace space_;
  DemandProfile demand_;
  std::shared_ptr<Tables> tables_;
};

}  // namespace fedshare::model
