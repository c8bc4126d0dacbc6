#include "core/core_solution.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/limits.hpp"

namespace fedshare::game {

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
  limits::require("max_core_violation", n, limits::kMaxTablePlayers);
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
