#include "core/dividends.hpp"

#include <optional>

#include "core/lattice.hpp"
#include "core/limits.hpp"

namespace fedshare::game {

std::vector<double> harsanyi_dividends(const Game& game) {
  // Fast Moebius transform via the cache-blocked lattice kernel; each
  // slot is updated once per bit pass, so the result is bitwise
  // identical to the old serial mask-conditional loop. A tabular game's
  // table is read in place: the result is the one copy.
  std::optional<TabularGame> storage;
  return dividends_lattice(*borrow_or_tabulate(game, {}, storage));
}

std::vector<std::vector<double>> interaction_index(const Game& game) {
  const int n = game.num_players();
  limits::require("interaction_index", n, limits::kMaxPairScanPlayers);
  const std::vector<double> d = harsanyi_dividends(game);
  const auto nn = static_cast<std::size_t>(n);
  std::vector<std::vector<double>> index(nn, std::vector<double>(nn, 0.0));
  for (std::uint64_t mask = 1; mask < d.size(); ++mask) {
    const int size = __builtin_popcountll(mask);
    if (size < 2 || d[mask] == 0.0) continue;
    const double share = d[mask] / static_cast<double>(size - 1);
    // Add to every pair inside the coalition.
    std::vector<int> members;
    std::uint64_t b = mask;
    while (b != 0) {
      members.push_back(__builtin_ctzll(b));
      b &= b - 1;
    }
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t c = a + 1; c < members.size(); ++c) {
        const auto i = static_cast<std::size_t>(members[a]);
        const auto j = static_cast<std::size_t>(members[c]);
        index[i][j] += share;
        index[j][i] += share;
      }
    }
  }
  return index;
}

}  // namespace fedshare::game
