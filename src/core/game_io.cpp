#include "core/game_io.hpp"

#include <ostream>

namespace fedshare::game {

void save_game(std::ostream& out, const TabularGame& game) {
  out << "fedshare-game v1\n";
  out << "players " << game.num_players() << "\n";
  out << "# values indexed by coalition bitmask\n";
  out.precision(17);
  for (const double v : game.values()) out << v << "\n";
}

}  // namespace fedshare::game
