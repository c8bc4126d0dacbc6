#include "core/properties.hpp"

#include "core/limits.hpp"

namespace fedshare::game {

std::optional<ViolationWitness> superadditivity_violation(const Game& game,
                                                          double tolerance) {
  const int n = game.num_players();
  limits::require("superadditivity_violation", n,
                  limits::kMaxDisjointPairPlayers);
  std::optional<TabularGame> storage;
  const std::vector<double>& v =
      borrow_or_tabulate(game, {}, storage)->values();
  const std::uint64_t grand = (std::uint64_t{1} << n) - 1;

  std::optional<ViolationWitness> worst;
  for (std::uint64_t s = 1; s <= grand; ++s) {
    const std::uint64_t complement = grand & ~s;
    // Enumerate non-empty submasks t of the complement with t's lowest
    // bit above s's lowest bit to visit each unordered pair once.
    for (std::uint64_t t = complement; t != 0;
         t = (t - 1) & complement) {
      if (t < s) break;  // submask enumeration is descending; prune half
      const double deficit = v[s] + v[t] - v[s | t];
      if (deficit > tolerance &&
          (!worst || deficit > worst->deficit)) {
        worst = ViolationWitness{Coalition::from_bits(s),
                                 Coalition::from_bits(t), deficit};
      }
    }
  }
  return worst;
}

std::optional<ViolationWitness> convexity_violation(const Game& game,
                                                    double tolerance) {
  const int n = game.num_players();
  limits::require("convexity_violation", n, limits::kMaxPairScanPlayers);
  std::optional<TabularGame> storage;
  const std::vector<double>& v =
      borrow_or_tabulate(game, {}, storage)->values();
  const std::uint64_t count = std::uint64_t{1} << n;

  std::optional<ViolationWitness> worst;
  for (std::uint64_t s = 0; s < count; ++s) {
    for (int i = 0; i < n; ++i) {
      if ((s >> i) & 1u) continue;
      const std::uint64_t si = s | (std::uint64_t{1} << i);
      for (int j = i + 1; j < n; ++j) {
        if ((s >> j) & 1u) continue;
        const std::uint64_t sj = s | (std::uint64_t{1} << j);
        const std::uint64_t sij = si | (std::uint64_t{1} << j);
        const double deficit = (v[si] - v[s]) - (v[sij] - v[sj]);
        if (deficit > tolerance && (!worst || deficit > worst->deficit)) {
          worst = ViolationWitness{Coalition::from_bits(si),
                                   Coalition::from_bits(sj), deficit};
        }
      }
    }
  }
  return worst;
}

std::optional<ViolationWitness> monotonicity_violation(const Game& game,
                                                       double tolerance) {
  const int n = game.num_players();
  limits::require("monotonicity_violation", n, limits::kMaxPairScanPlayers);
  std::optional<TabularGame> storage;
  const std::vector<double>& v =
      borrow_or_tabulate(game, {}, storage)->values();
  const std::uint64_t count = std::uint64_t{1} << n;

  std::optional<ViolationWitness> worst;
  for (std::uint64_t s = 0; s < count; ++s) {
    for (int i = 0; i < n; ++i) {
      if ((s >> i) & 1u) continue;
      const std::uint64_t si = s | (std::uint64_t{1} << i);
      const double deficit = v[s] - v[si];
      if (deficit > tolerance && (!worst || deficit > worst->deficit)) {
        worst = ViolationWitness{Coalition::from_bits(s),
                                 Coalition::from_bits(si), deficit};
      }
    }
  }
  return worst;
}

bool is_superadditive(const Game& game, double tolerance) {
  return !superadditivity_violation(game, tolerance).has_value();
}

bool is_convex(const Game& game, double tolerance) {
  return !convexity_violation(game, tolerance).has_value();
}

bool is_monotone(const Game& game, double tolerance) {
  return !monotonicity_violation(game, tolerance).has_value();
}

bool is_essential(const Game& game, double tolerance) {
  return game.grand_value() > standalone_total(game) + tolerance;
}

PropertyReport analyze_properties(const Game& game, double tolerance) {
  PropertyReport r;
  r.superadditive = is_superadditive(game, tolerance);
  r.convex = is_convex(game, tolerance);
  r.monotone = is_monotone(game, tolerance);
  r.essential = is_essential(game, tolerance);
  return r;
}

}  // namespace fedshare::game
