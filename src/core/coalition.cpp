#include "core/coalition.hpp"

#include <stdexcept>

#include "core/limits.hpp"

namespace fedshare::game {

namespace {
void check_player(int player) {
  if (player < 0 || player >= Coalition::kMaxPlayers) {
    throw std::out_of_range("Coalition: player index out of range");
  }
}
}  // namespace

Coalition Coalition::grand(int num_players) {
  if (num_players < 0 || num_players > kMaxPlayers) {
    throw std::invalid_argument("Coalition::grand: bad player count");
  }
  if (num_players == 0) return {};
  if (num_players == kMaxPlayers) return from_bits(~std::uint64_t{0});
  return from_bits((std::uint64_t{1} << num_players) - 1);
}

Coalition Coalition::single(int player) {
  check_player(player);
  return from_bits(std::uint64_t{1} << player);
}

bool Coalition::contains(int player) const {
  check_player(player);
  return (bits_ >> player) & 1u;
}

Coalition Coalition::with(int player) const {
  check_player(player);
  return from_bits(bits_ | (std::uint64_t{1} << player));
}

Coalition Coalition::without(int player) const {
  check_player(player);
  return from_bits(bits_ & ~(std::uint64_t{1} << player));
}

std::vector<int> Coalition::members() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(size()));
  std::uint64_t b = bits_;
  while (b != 0) {
    const int p = __builtin_ctzll(b);
    out.push_back(p);
    b &= b - 1;
  }
  return out;
}

std::string Coalition::to_string() const {
  std::string out = "{";
  bool first = true;
  for (const int p : members()) {
    if (!first) out += ',';
    out += std::to_string(p);
    first = false;
  }
  out += '}';
  return out;
}

std::vector<Coalition> all_coalitions(int num_players) {
  if (num_players < 0) throw std::invalid_argument("all_coalitions: n < 0");
  limits::require("all_coalitions", num_players, limits::kMaxTablePlayers);
  const std::uint64_t count = std::uint64_t{1} << num_players;
  std::vector<Coalition> out;
  out.reserve(count);
  for (std::uint64_t m = 0; m < count; ++m) {
    out.push_back(Coalition::from_bits(m));
  }
  return out;
}

}  // namespace fedshare::game
