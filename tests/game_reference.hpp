// Game-layer test helpers kept out of the library: no program calls
// them, but the tests lean on them as fixtures and oracles.
//   * coalition_of builds a coalition from a member list;
//   * zeta_transform is the plain scalar subset-sum loop, the inverse
//     the Moebius kernel is checked against, and game_from_dividends
//     applies it to rebuild a game from its Harsanyi dividends;
//   * zero_normalized subtracts each member's stand-alone value, the
//     fixture of the Shapley additivity property test;
//   * shapley_from_dividends is the dividend formula, an independent
//     cross-check of the marginal-contribution Shapley engine;
//   * load_game parses the fedshare-game v1 text that save_game and the
//     CLI's --dump-game write (format in core/game_io.hpp).
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "core/game.hpp"

namespace fedshare::game::reference {

/// The coalition with exactly `players`, e.g. coalition_of({0, 2}).
[[nodiscard]] inline Coalition coalition_of(
    std::initializer_list<int> players) {
  Coalition c;
  for (const int p : players) c = c.with(p);
  return c;
}

/// In-place zeta transform v'[S] = sum_{T subseteq S} v[T], one bit pass
/// at a time over ascending masks. `values` must have 2^num_players
/// entries.
void zeta_transform(std::vector<double>& values, int num_players);

/// The game whose value table is the zeta transform of `dividends`
/// (2^num_players entries, num_players in [0, 24]).
[[nodiscard]] TabularGame game_from_dividends(
    int num_players, const std::vector<double>& dividends);

/// The 0-normalisation V0(S) = V(S) - sum_{i in S} V({i}).
[[nodiscard]] TabularGame zero_normalized(const TabularGame& game);

/// Shapley values from Harsanyi dividends: phi_i = sum_{S ni i} d_S / |S|.
[[nodiscard]] std::vector<double> shapley_from_dividends(const Game& game);

/// Parses a fedshare-game v1 stream; throws std::runtime_error with a
/// description on malformed input.
[[nodiscard]] TabularGame load_game(std::istream& in);

}  // namespace fedshare::game::reference
