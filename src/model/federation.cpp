#include "model/federation.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/limits.hpp"
#include "exec/pool.hpp"
#include "model/value.hpp"

namespace fedshare::model {

namespace {

// Masks per tabulation chunk — mirrors core/game.cpp's kTabulateChunk
// so the per-mask tabulation below schedules exactly like
// game::tabulate.
constexpr std::uint64_t kTabulateChunk = 16;

}  // namespace

Federation::Federation(LocationSpace space, DemandProfile demand)
    : space_(std::move(space)),
      demand_(std::move(demand)),
      tables_(std::make_shared<Tables>()) {
  demand_.validate();
}

double Federation::value(game::Coalition coalition) const {
  std::call_once(tables_->closed_once,
                 [this] { tables_->closed = build_game(); });
  return tables_->closed->value(coalition);
}

exec::ValueCache& Federation::memo() const {
  std::call_once(tables_->memo_once, [this] {
    limits::require("raw_value", num_facilities(), limits::kMaxTablePlayers);
    tables_->memo.emplace(std::uint64_t{1} << num_facilities());
  });
  return *tables_->memo;
}

double Federation::raw_value(game::Coalition coalition) const {
  return memo().value_or_compute(coalition.bits(), [&] {
    return coalition_value(space_, demand_, coalition);
  });
}

game::TabularGame Federation::build_game() const {
  return build_game(game::SymmetryMode::kOff);
}

game::PlayerPartition Federation::symmetry_partition(
    game::SymmetryMode mode) const {
  if (mode == game::SymmetryMode::kOff) {
    return game::PlayerPartition::identity(num_facilities());
  }
  game::PlayerPartition candidate = config_symmetry_partition(space_);
  if (mode == game::SymmetryMode::kAuto && !candidate.is_trivial()) {
    // The oracle samples the raw greedy V: one memoised allocation per
    // probe instead of the whole closed table, and closure preserves
    // any symmetry of the raw function.
    const game::FunctionGame raw(
        num_facilities(),
        [this](game::Coalition s) { return raw_value(s); });
    candidate = game::verified_partition(raw, candidate);
  }
  return candidate;
}

game::TabularGame Federation::build_game(game::SymmetryMode mode) const {
  return *build_game_budgeted(mode, runtime::ComputeBudget::unlimited());
}

std::optional<game::TabularGame> Federation::build_game_budgeted(
    game::SymmetryMode mode, const runtime::ComputeBudget& budget) const {
  const game::PlayerPartition partition = symmetry_partition(mode);
  const int n = num_facilities();
  if (partition.is_trivial()) {
    limits::require("build_game", n, limits::kMaxTablePlayers);
    // Each mask writes its own slot and charges one unit, so the table
    // is bit-identical to the serial loop at any thread count; the memo
    // lookups are one per mask, so its counters are too.
    const std::uint64_t count = std::uint64_t{1} << n;
    std::vector<double> values(count);
    const bool complete = exec::parallel_for_budgeted(
        0, count, kTabulateChunk, budget,
        [&](const exec::ChunkRange& r, const runtime::ComputeBudget& b) {
          for (std::uint64_t mask = r.begin; mask < r.end; ++mask) {
            if (!b.charge()) return false;
            values[mask] = raw_value(game::Coalition::from_bits(mask));
          }
          return true;
        });
    if (!complete) return std::nullopt;
    game::close_monotone(game::identity_index(n), values);
    return game::TabularGame(n, std::move(values));
  }
  const game::FunctionGame raw(
      n, [this](game::Coalition s) { return raw_value(s); });
  const game::QuotientGame quotient(raw, partition);
  auto orbit_values = quotient.orbit_values_budgeted(budget);
  if (!orbit_values) return std::nullopt;
  game::close_monotone(quotient.orbits(), *orbit_values);
  return game::expand_orbit_table(quotient.orbits(), *orbit_values);
}

std::vector<double> Federation::availability_weights() const {
  std::vector<double> weights;
  weights.reserve(static_cast<std::size_t>(num_facilities()));
  for (const auto& f : space_.facilities()) {
    weights.push_back(f.availability_weight());
  }
  return weights;
}

std::vector<double> Federation::consumption_weights() const {
  return model::consumption_weights(space_, demand_);
}

}  // namespace fedshare::model
