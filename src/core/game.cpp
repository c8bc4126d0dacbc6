#include "core/game.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/limits.hpp"
#include "exec/pool.hpp"

namespace fedshare::game {

namespace {

// Masks per parallel chunk. Model-backed V(S) is an LP solve (µs–ms),
// so small chunks keep the stealing balanced; for trivial function
// games the per-chunk overhead is still negligible next to 2^n calls.
constexpr std::uint64_t kTabulateChunk = 16;

}  // namespace

std::optional<double> Game::value_budgeted(
    Coalition coalition, const runtime::ComputeBudget& budget) const {
  // Every call materialises a fresh value: charge one unit first.
  if (!budget.charge()) return std::nullopt;
  return value(coalition);
}

TabularGame::TabularGame(int num_players, std::vector<double> values)
    : num_players_(num_players), values_(std::move(values)) {
  if (num_players < 0) throw std::invalid_argument("TabularGame: n < 0");
  limits::require("TabularGame", num_players, limits::kMaxTablePlayers);
  const std::size_t expected = std::size_t{1} << num_players;
  if (values_.size() != expected) {
    throw std::invalid_argument("TabularGame: need exactly 2^n values");
  }
  if (std::abs(values_[0]) > 1e-12) {
    throw std::invalid_argument("TabularGame: V(empty) must be 0");
  }
}

double TabularGame::value(Coalition coalition) const {
  const std::uint64_t idx = coalition.bits();
  if (idx >= values_.size()) {
    throw std::out_of_range("TabularGame::value: coalition out of range");
  }
  return values_[idx];
}

std::optional<double> TabularGame::value_budgeted(
    Coalition coalition, const runtime::ComputeBudget& budget) const {
  (void)budget;  // table reads are free under the charging rule
  return value(coalition);
}

FunctionGame::FunctionGame(int num_players, ValueFn fn)
    : num_players_(num_players), fn_(std::move(fn)) {
  if (num_players < 0 || num_players > Coalition::kMaxPlayers) {
    throw std::invalid_argument("FunctionGame: bad player count");
  }
  if (!fn_) {
    throw std::invalid_argument("FunctionGame: null value function");
  }
}

double FunctionGame::value(Coalition coalition) const {
  if (!coalition.is_subset_of(Coalition::grand(num_players_))) {
    throw std::out_of_range("FunctionGame::value: coalition out of range");
  }
  return fn_(coalition);
}

TabularGame tabulate(const Game& game) {
  const int n = game.num_players();
  limits::require("tabulate", n, limits::kMaxTablePlayers);
  if (const auto* tab = dynamic_cast<const TabularGame*>(&game)) {
    return *tab;  // already materialised: copy the table
  }
  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> values(count);
  // Each mask writes its own slot, so the parallel schedule is
  // bit-identical to the serial loop at any thread count.
  exec::parallel_for(0, count, kTabulateChunk,
                     [&](const exec::ChunkRange& r) {
                       for (std::uint64_t mask = r.begin; mask < r.end;
                            ++mask) {
                         values[mask] =
                             game.value(Coalition::from_bits(mask));
                       }
                       return true;
                     });
  return TabularGame(n, std::move(values));
}

std::optional<TabularGame> tabulate_budgeted(
    const Game& game, const runtime::ComputeBudget& budget) {
  const int n = game.num_players();
  limits::require("tabulate_budgeted", n, limits::kMaxTablePlayers);
  if (const auto* tab = dynamic_cast<const TabularGame*>(&game)) {
    return *tab;  // re-reads are free under the charging rule
  }
  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> values(count);
  const bool ok = exec::parallel_for_budgeted(
      0, count, kTabulateChunk, budget,
      [&](const exec::ChunkRange& r, const runtime::ComputeBudget& b) {
        for (std::uint64_t mask = r.begin; mask < r.end; ++mask) {
          const auto v = game.value_budgeted(Coalition::from_bits(mask), b);
          if (!v) return false;
          values[mask] = *v;
        }
        return true;
      });
  if (!ok) return std::nullopt;
  return TabularGame(n, std::move(values));
}

const TabularGame* borrow_or_tabulate(const Game& game,
                                      const runtime::ComputeBudget& budget,
                                      std::optional<TabularGame>& storage) {
  if (const auto* tab = dynamic_cast<const TabularGame*>(&game)) return tab;
  storage = tabulate_budgeted(game, budget);
  return storage ? &*storage : nullptr;
}

double standalone_total(const Game& game) {
  double total = 0.0;
  for (int i = 0; i < game.num_players(); ++i) {
    total += game.value(Coalition::single(i));
  }
  return total;
}

}  // namespace fedshare::game
