// Tests for game serialization round trips and error handling.
#include <gtest/gtest.h>

#include <sstream>

#include "core/game_io.hpp"
#include "core/shapley.hpp"
#include "game_reference.hpp"

namespace fedshare::game {
namespace {

TabularGame sample_game() {
  return TabularGame(
      3, {0.0, 1.5, 2.0, 4.25, 3.0, 5.0, 6.125, 10.000000000000002});
}

TEST(GameIo, RoundTripPreservesValuesExactly) {
  const TabularGame original = sample_game();
  std::stringstream buffer;
  save_game(buffer, original);
  const TabularGame loaded = reference::load_game(buffer);
  EXPECT_EQ(loaded.num_players(), 3);
  EXPECT_EQ(loaded.values(), original.values());  // bit-exact (17 digits)
}

TEST(GameIo, RoundTripPreservesShapley) {
  const TabularGame original = sample_game();
  std::stringstream buffer;
  save_game(buffer, original);
  const TabularGame loaded = reference::load_game(buffer);
  EXPECT_EQ(shapley_exact(original), shapley_exact(loaded));
}

TEST(GameIo, LoadSkipsCommentsAndBlanks) {
  std::istringstream in(
      "# a comment\n\nfedshare-game v1\nplayers 1\n# values\n0\n\n7.5\n");
  const TabularGame g = reference::load_game(in);
  EXPECT_EQ(g.num_players(), 1);
  EXPECT_DOUBLE_EQ(g.grand_value(), 7.5);
}

TEST(GameIo, RejectsMissingHeader) {
  std::istringstream in("players 1\n0\n1\n");
  EXPECT_THROW((void)reference::load_game(in), std::runtime_error);
}

TEST(GameIo, RejectsBadPlayerCount) {
  std::istringstream in("fedshare-game v1\nplayers 99\n");
  EXPECT_THROW((void)reference::load_game(in), std::runtime_error);
  std::istringstream in2("fedshare-game v1\nplayers x\n");
  EXPECT_THROW((void)reference::load_game(in2), std::runtime_error);
}

TEST(GameIo, RejectsTruncatedValues) {
  std::istringstream in("fedshare-game v1\nplayers 2\n0\n1\n2\n");
  EXPECT_THROW((void)reference::load_game(in), std::runtime_error);
}

TEST(GameIo, RejectsTrailingContent) {
  std::istringstream in("fedshare-game v1\nplayers 1\n0\n1\nextra\n");
  EXPECT_THROW((void)reference::load_game(in), std::runtime_error);
}

TEST(GameIo, RejectsMalformedValues) {
  std::istringstream in("fedshare-game v1\nplayers 1\n0\nnot-a-number\n");
  EXPECT_THROW((void)reference::load_game(in), std::runtime_error);
  std::istringstream in2("fedshare-game v1\nplayers 1\n0\n1.5junk\n");
  EXPECT_THROW((void)reference::load_game(in2), std::runtime_error);
}

TEST(GameIo, RejectsNonZeroEmptyCoalition) {
  std::istringstream in("fedshare-game v1\nplayers 1\n3\n1\n");
  EXPECT_THROW((void)reference::load_game(in), std::runtime_error);
}

}  // namespace
}  // namespace fedshare::game
