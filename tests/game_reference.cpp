#include "game_reference.hpp"

#include <istream>
#include <stdexcept>
#include <string>

#include "core/dividends.hpp"

namespace fedshare::game::reference {

namespace {

// Reads the next content line (skipping blanks and '#' comments);
// returns false at end of stream.
bool next_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    line = line.substr(first);
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' ||
            line.back() == '\t')) {
      line.pop_back();
    }
    return true;
  }
  return false;
}

}  // namespace

void zeta_transform(std::vector<double>& values, int num_players) {
  if (values.size() != (std::size_t{1} << num_players)) {
    throw std::invalid_argument("zeta_transform: need exactly 2^n values");
  }
  for (int bit = 0; bit < num_players; ++bit) {
    const std::uint64_t b = std::uint64_t{1} << bit;
    for (std::uint64_t mask = 0; mask < values.size(); ++mask) {
      if (mask & b) values[mask] += values[mask ^ b];
    }
  }
}

TabularGame game_from_dividends(int num_players,
                                const std::vector<double>& dividends) {
  if (num_players < 0 || num_players > 24) {
    throw std::invalid_argument("game_from_dividends: n must be in [0, 24]");
  }
  std::vector<double> v = dividends;
  zeta_transform(v, num_players);
  return TabularGame(num_players, std::move(v));
}

TabularGame zero_normalized(const TabularGame& game) {
  const std::vector<double>& v = game.values();
  std::vector<double> out(v.size());
  for (std::uint64_t mask = 0; mask < v.size(); ++mask) {
    double singles = 0.0;
    std::uint64_t b = mask;
    while (b != 0) {
      singles += v[std::uint64_t{1} << __builtin_ctzll(b)];
      b &= b - 1;
    }
    out[mask] = v[mask] - singles;
  }
  return TabularGame(game.num_players(), std::move(out));
}

std::vector<double> shapley_from_dividends(const Game& game) {
  const int n = game.num_players();
  const std::vector<double> d = harsanyi_dividends(game);
  std::vector<double> phi(static_cast<std::size_t>(n), 0.0);
  for (std::uint64_t mask = 1; mask < d.size(); ++mask) {
    const double share =
        d[mask] / static_cast<double>(__builtin_popcountll(mask));
    std::uint64_t b = mask;
    while (b != 0) {
      phi[static_cast<std::size_t>(__builtin_ctzll(b))] += share;
      b &= b - 1;
    }
  }
  return phi;
}

TabularGame load_game(std::istream& in) {
  std::string line;
  if (!next_line(in, line) || line != "fedshare-game v1") {
    throw std::runtime_error("load_game: missing 'fedshare-game v1' header");
  }
  if (!next_line(in, line) || line.rfind("players ", 0) != 0) {
    throw std::runtime_error("load_game: missing 'players <n>' line");
  }
  int n = 0;
  try {
    n = std::stoi(line.substr(8));
  } catch (const std::exception&) {
    throw std::runtime_error("load_game: bad player count");
  }
  if (n < 0 || n > 24) {
    throw std::runtime_error("load_game: player count out of [0, 24]");
  }
  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> values;
  values.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!next_line(in, line)) {
      throw std::runtime_error("load_game: expected " +
                               std::to_string(count) + " values, got " +
                               std::to_string(i));
    }
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(line, &used);
    } catch (const std::exception&) {
      throw std::runtime_error("load_game: bad value '" + line + "'");
    }
    if (used != line.size()) {
      throw std::runtime_error("load_game: trailing junk in '" + line + "'");
    }
    values.push_back(v);
  }
  if (next_line(in, line)) {
    throw std::runtime_error("load_game: unexpected trailing content");
  }
  try {
    return TabularGame(n, std::move(values));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_game: ") + e.what());
  }
}

}  // namespace fedshare::game::reference
