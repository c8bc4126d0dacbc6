#include "core/core_solution.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "lp/simplex.hpp"

namespace fedshare::game {

LeastCoreResult least_core(const Game& game) {
  return least_core(game, lp::SimplexOptions{});
}

LeastCoreResult least_core(const Game& game,
                           const lp::SimplexOptions& options) {
  const int n = game.num_players();
  if (n < 1 || n > kMaxLeastCorePlayers) {
    throw std::invalid_argument(
        "least_core: n must be in [1, kMaxLeastCorePlayers = " +
        std::to_string(kMaxLeastCorePlayers) + "]");
  }
  const TabularGame tab = tabulate(game);
  const std::vector<double>& v = tab.values();
  const std::uint64_t grand = (std::uint64_t{1} << n) - 1;

  // Variables: x_0..x_{n-1} (free) and epsilon (free, index n).
  const auto nv = static_cast<std::size_t>(n);
  lp::Problem prob(nv + 1, lp::Objective::kMinimize);
  for (std::size_t i = 0; i <= nv; ++i) prob.set_free(i);
  prob.set_objective_coefficient(nv, 1.0);

  // Efficiency: sum x_i = V(N).
  {
    std::vector<double> row(nv + 1, 0.0);
    for (std::size_t i = 0; i < nv; ++i) row[i] = 1.0;
    prob.add_constraint(std::move(row), lp::Relation::kEqual, v[grand]);
  }
  // x(S) + epsilon >= V(S) for every proper non-empty S.
  for (std::uint64_t mask = 1; mask < grand; ++mask) {
    std::vector<double> row(nv + 1, 0.0);
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) row[static_cast<std::size_t>(i)] = 1.0;
    }
    row[nv] = 1.0;
    prob.add_constraint(std::move(row), lp::Relation::kGreaterEqual, v[mask]);
  }

  // The dense engine starts from the equal split V(N) / n with epsilon
  // at the largest excess there, a point every excess row holds, so only
  // the efficiency row takes a phase-1 artificial. The start depends on
  // the game alone, never on an allocation a caller wants checked.
  std::vector<double> start(nv + 1, v[grand] / static_cast<double>(n));
  start[nv] = -std::numeric_limits<double>::infinity();
  for (std::uint64_t mask = 1; mask < grand; ++mask) {
    double x_s = 0.0;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) x_s += start[static_cast<std::size_t>(i)];
    }
    start[nv] = std::max(start[nv], v[mask] - x_s);
  }
  if (!std::isfinite(start[nv])) start[nv] = 0.0;  // n == 1: no rows

  LeastCoreResult out;
  const lp::Solution sol = lp::solve(prob, options, start);
  out.status = sol.status;
  if (!sol.optimal()) return out;
  out.solved = true;
  out.epsilon = sol.x[nv];
  out.allocation.assign(sol.x.begin(), sol.x.begin() + n);
  return out;
}

bool in_core(const Game& game, const std::vector<double>& allocation,
             double tolerance) {
  const int n = game.num_players();
  if (allocation.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("in_core: allocation size must equal n");
  }
  double total = 0.0;
  for (const double a : allocation) total += a;
  if (std::abs(total - game.grand_value()) > tolerance) return false;
  return max_core_violation(game, allocation) <= tolerance;
}

double max_core_violation(const Game& game,
                          const std::vector<double>& allocation) {
  const int n = game.num_players();
  if (allocation.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument(
        "max_core_violation: allocation size must equal n");
  }
  if (n > 24) {
    throw std::invalid_argument("max_core_violation: n must be <= 24");
  }
  const std::uint64_t grand = (std::uint64_t{1} << n) - 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (std::uint64_t mask = 1; mask < grand; ++mask) {
    double x_s = 0.0;
    std::uint64_t b = mask;
    while (b != 0) {
      x_s += allocation[static_cast<std::size_t>(__builtin_ctzll(b))];
      b &= b - 1;
    }
    worst = std::max(worst, game.value(Coalition::from_bits(mask)) - x_s);
  }
  return worst;
}

}  // namespace fedshare::game
