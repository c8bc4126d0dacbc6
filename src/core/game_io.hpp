// Plain-text serialization for tabular games.
//
// Computing V(S) can be expensive (allocation runs, DES campaigns);
// save_game writes a characteristic function once (the CLI's
// --dump-game) so it can be stored, inspected and shared between tools.
// Format:
//
//   fedshare-game v1
//   players <n>
//   <value of coalition mask 0>
//   <value of coalition mask 1>
//   ...            (2^n lines, index = coalition bitmask)
//
// Lines starting with '#' and blank lines carry no data. No program
// reads the format back; the tests' reader (tests/game_reference.hpp)
// checks the round trip.
#pragma once

#include <iosfwd>

#include "core/game.hpp"

namespace fedshare::game {

/// Writes `game` in the fedshare-game v1 format.
void save_game(std::ostream& out, const TabularGame& game);

}  // namespace fedshare::game
