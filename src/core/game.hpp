// Transferable-utility coalitional games.
//
// A Game maps coalitions to values (the characteristic function V).
// Concrete games either tabulate all 2^n values (TabularGame) or wrap a
// callable (FunctionGame); tabulate() converts any game to tabular form,
// which the exact solvers use to avoid recomputing V.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/coalition.hpp"
#include "runtime/budget.hpp"

namespace fedshare::game {

/// Abstract transferable-utility game. Implementations must be
/// deterministic: value(S) may be called many times for the same S.
/// They must also be safe to call concurrently from exec workers —
/// value() is const and parallel tabulation evaluates disjoint masks
/// from multiple threads. Convention: value(empty) == 0.
class Game {
 public:
  virtual ~Game() = default;

  /// Number of players n (players are 0..n-1).
  [[nodiscard]] virtual int num_players() const = 0;

  /// Characteristic function V(S). `coalition` must only contain players
  /// < num_players().
  [[nodiscard]] virtual double value(Coalition coalition) const = 0;

  /// Budget-aware V(S). Follows the charging rule in runtime/budget.hpp:
  /// one unit per *distinct* V(S) materialisation, re-reads free. The
  /// default charges one unit then evaluates (every call materialises);
  /// TabularGame re-reads are free; QuotientGame charges only when an
  /// orbit is first materialised. Returns nullopt when the budget trips
  /// before the value is produced.
  [[nodiscard]] virtual std::optional<double> value_budgeted(
      Coalition coalition, const runtime::ComputeBudget& budget) const;

  /// V of the grand coalition (convenience).
  [[nodiscard]] double grand_value() const {
    return value(Coalition::grand(num_players()));
  }
};

/// A game defined by an explicit table of 2^n values indexed by coalition
/// bitmask. This is the workhorse representation for exact algorithms.
class TabularGame final : public Game {
 public:
  /// `values` must have exactly 2^num_players entries, values[0] == 0.
  TabularGame(int num_players, std::vector<double> values);

  [[nodiscard]] int num_players() const override { return num_players_; }
  [[nodiscard]] double value(Coalition coalition) const override;

  /// Table reads are already-materialised values: free under the
  /// charging rule, so this never trips the budget.
  [[nodiscard]] std::optional<double> value_budgeted(
      Coalition coalition,
      const runtime::ComputeBudget& budget) const override;

  /// Direct access to the value table (index = coalition bitmask).
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  int num_players_;
  std::vector<double> values_;
};

/// A game defined by a callable. No caching: wrap with tabulate() before
/// running exponential algorithms.
class FunctionGame final : public Game {
 public:
  using ValueFn = std::function<double(Coalition)>;

  /// `fn` must return 0 for the empty coalition.
  FunctionGame(int num_players, ValueFn fn);

  [[nodiscard]] int num_players() const override { return num_players_; }
  [[nodiscard]] double value(Coalition coalition) const override;

 private:
  int num_players_;
  ValueFn fn_;
};

/// Evaluates `game` on every coalition and returns the tabular form.
/// Requires num_players() <= kMaxTablePlayers (core/limits.hpp).
/// Already-tabular games return a copy of their table without
/// re-evaluating (borrow_or_tabulate reads it in place). Masks are
/// evaluated in parallel when the exec executor has threads > 1; each
/// mask writes its own slot, so the result is bit-identical at any
/// thread count.
[[nodiscard]] TabularGame tabulate(const Game& game);

/// Budgeted tabulation: returns nullopt when `budget` trips before all
/// 2^n values are materialised. Charging follows the charging rule in
/// runtime/budget.hpp via Game::value_budgeted — one unit per distinct
/// V(S) materialisation, so an already-tabular game (or a memo hit)
/// tabulates for free. Same requirements as tabulate(); runs in
/// parallel under the exec executor with forked child budgets.
[[nodiscard]] std::optional<TabularGame> tabulate_budgeted(
    const Game& game, const runtime::ComputeBudget& budget);

/// The table of `game` without a copy: `game` itself when it already is
/// a TabularGame, otherwise tabulate_budgeted(game, budget) held in
/// `storage`. Null when the budget trips first. The table lives as long
/// as `game` or `storage`, whichever holds it.
[[nodiscard]] const TabularGame* borrow_or_tabulate(
    const Game& game, const runtime::ComputeBudget& budget,
    std::optional<TabularGame>& storage);

/// Sum of V({i}) over all players (the "act alone" total).
[[nodiscard]] double standalone_total(const Game& game);

}  // namespace fedshare::game
