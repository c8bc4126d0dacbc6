#include "core/owen.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/limits.hpp"

namespace fedshare::game {

void CoalitionStructure::validate(int num_players) const {
  if (num_players < 1 || num_players > Coalition::kMaxPlayers) {
    throw std::invalid_argument(
        "CoalitionStructure: num_players " + std::to_string(num_players) +
        " outside [1, " + std::to_string(Coalition::kMaxPlayers) + "]");
  }
  if (unions.empty()) {
    throw std::invalid_argument(
        "CoalitionStructure: no unions (a partition of " +
        std::to_string(num_players) + " players needs at least one block)");
  }
  const Coalition grand = Coalition::grand(num_players);
  Coalition seen;
  for (std::size_t k = 0; k < unions.size(); ++k) {
    const Coalition u = unions[k];
    if (u.empty()) {
      throw std::invalid_argument("CoalitionStructure: union #" +
                                  std::to_string(k) + " is empty");
    }
    if (!u.is_subset_of(grand)) {
      throw std::invalid_argument(
          "CoalitionStructure: union #" + std::to_string(k) + " = " +
          u.to_string() + " contains player " +
          std::to_string(u.minus(grand).members().front()) +
          " >= num_players (" + std::to_string(num_players) + ")");
    }
    const Coalition overlap = u.intersected(seen);
    if (!overlap.empty()) {
      throw std::invalid_argument(
          "CoalitionStructure: union #" + std::to_string(k) + " = " +
          u.to_string() + " overlaps an earlier union on " +
          overlap.to_string());
    }
    seen = seen.united(u);
  }
  if (seen != grand) {
    throw std::invalid_argument(
        "CoalitionStructure: players " + grand.minus(seen).to_string() +
        " are covered by no union");
  }
}

std::size_t CoalitionStructure::union_of(int player) const {
  for (std::size_t k = 0; k < unions.size(); ++k) {
    if (unions[k].contains(player)) return k;
  }
  throw std::invalid_argument("CoalitionStructure: player not in any union");
}

namespace {

// weights[s] = s! (n-s-1)! / n! in log space.
std::vector<double> shapley_weights(int n) {
  std::vector<double> log_fact(static_cast<std::size_t>(n) + 1, 0.0);
  for (int k = 2; k <= n; ++k) {
    log_fact[static_cast<std::size_t>(k)] =
        log_fact[static_cast<std::size_t>(k - 1)] + std::log(k);
  }
  std::vector<double> w(static_cast<std::size_t>(n), 0.0);
  for (int s = 0; s < n; ++s) {
    w[static_cast<std::size_t>(s)] =
        std::exp(log_fact[static_cast<std::size_t>(s)] +
                 log_fact[static_cast<std::size_t>(n - s - 1)] -
                 log_fact[static_cast<std::size_t>(n)]);
  }
  return w;
}

}  // namespace

std::vector<double> owen_value(const Game& game,
                               const CoalitionStructure& structure) {
  const int n = game.num_players();
  limits::require("owen_value", n, limits::kMaxPairScanPlayers);
  structure.validate(n);
  std::optional<TabularGame> storage;
  const TabularGame& tab = *borrow_or_tabulate(game, {}, storage);
  const auto m = static_cast<int>(structure.unions.size());
  const std::vector<double> union_w = shapley_weights(m);

  std::vector<double> psi(static_cast<std::size_t>(n), 0.0);
  for (int k = 0; k < m; ++k) {
    const Coalition uk = structure.unions[static_cast<std::size_t>(k)];
    const int u = uk.size();
    const std::vector<double> inner_w = shapley_weights(u);
    const std::vector<int> members = uk.members();

    // Enumerate subsets H of the other unions.
    std::vector<Coalition> others;
    for (int j = 0; j < m; ++j) {
      if (j != k) others.push_back(structure.unions[static_cast<std::size_t>(j)]);
    }
    const std::uint64_t h_count = std::uint64_t{1} << others.size();
    for (std::uint64_t h_mask = 0; h_mask < h_count; ++h_mask) {
      Coalition q;  // players of the unions in H
      for (std::size_t j = 0; j < others.size(); ++j) {
        if ((h_mask >> j) & 1u) q = q.united(others[j]);
      }
      const double wh =
          union_w[static_cast<std::size_t>(__builtin_popcountll(h_mask))];

      // Enumerate subsets T of U_k (as masks over the member list).
      const std::uint64_t t_count = std::uint64_t{1} << u;
      for (std::uint64_t t_mask = 0; t_mask < t_count; ++t_mask) {
        // Full T: no member of U_k left to add.
        if (__builtin_popcountll(t_mask) == u) continue;
        Coalition t;
        for (int b = 0; b < u; ++b) {
          if ((t_mask >> b) & 1u) {
            t = t.with(members[static_cast<std::size_t>(b)]);
          }
        }
        const Coalition base = q.united(t);
        const double base_value = tab.value(base);
        const double wt = inner_w[static_cast<std::size_t>(
            __builtin_popcountll(t_mask))];
        for (int b = 0; b < u; ++b) {
          if ((t_mask >> b) & 1u) continue;
          const int player = members[static_cast<std::size_t>(b)];
          const double marginal =
              tab.value(base.with(player)) - base_value;
          psi[static_cast<std::size_t>(player)] += wh * wt * marginal;
        }
      }
    }
  }
  return psi;
}

TabularGame quotient_game(const Game& game,
                          const CoalitionStructure& structure) {
  const int n = game.num_players();
  structure.validate(n);
  const auto m = static_cast<int>(structure.unions.size());
  limits::require("quotient_game (unions)", m, limits::kMaxTablePlayers);
  const std::uint64_t count = std::uint64_t{1} << m;
  std::vector<double> values(count, 0.0);
  for (std::uint64_t mask = 0; mask < count; ++mask) {
    Coalition s;
    for (int j = 0; j < m; ++j) {
      if ((mask >> j) & 1u) {
        s = s.united(structure.unions[static_cast<std::size_t>(j)]);
      }
    }
    values[mask] = game.value(s);
  }
  return TabularGame(m, std::move(values));
}

}  // namespace fedshare::game
