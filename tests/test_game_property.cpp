// Randomized property tests over the coalitional-game engine: the
// Shapley axioms, solution-concept relationships, and Owen consistency
// on arbitrary (monotone, zero-normalised) random games.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/banzhaf.hpp"
#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/owen.hpp"
#include "core/properties.hpp"
#include "core/shapley.hpp"
#include "sim/rng.hpp"
#include "game_reference.hpp"

namespace fedshare::game {
namespace {

// Random monotone game: assign random increments along the subset
// lattice so V(S) <= V(T) for S subset of T, V(empty) = 0.
TabularGame random_monotone_game(int n, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> values(count, 0.0);
  for (std::uint64_t mask = 1; mask < count; ++mask) {
    double best_subset = 0.0;
    std::uint64_t b = mask;
    while (b != 0) {
      const int p = __builtin_ctzll(b);
      best_subset = std::max(
          best_subset, values[mask & ~(std::uint64_t{1} << p)]);
      b &= b - 1;
    }
    values[mask] = best_subset + rng.uniform(0.0, 5.0);
  }
  return TabularGame(n, std::move(values));
}

// Random superadditive game: V(S) is the best split of S into two
// disjoint non-empty parts, V(A) + V(B), plus a non-negative draw, so
// V(A u B) >= V(A) + V(B) holds by construction.
TabularGame random_superadditive_game(int n, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> values(count, 0.0);
  for (std::uint64_t mask = 1; mask < count; ++mask) {
    double best_split = 0.0;
    for (std::uint64_t a = (mask - 1) & mask; a != 0; a = (a - 1) & mask) {
      best_split = std::max(best_split, values[a] + values[mask & ~a]);
    }
    values[mask] = best_split + rng.uniform(0.0, 5.0);
  }
  return TabularGame(n, std::move(values));
}

class RandomGame : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] TabularGame make(int n) const {
    return random_monotone_game(n, GetParam());
  }
};

TEST_P(RandomGame, ShapleyEfficiency) {
  const auto g = make(5);
  const auto phi = shapley_exact(g);
  EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), g.grand_value(),
              1e-9);
}

TEST_P(RandomGame, ShapleyMatchesPermutationEnumeration) {
  const auto g = make(5);
  const auto a = shapley_exact(g);
  const auto b = shapley_permutations(g);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST_P(RandomGame, ShapleyIndividuallyRationalOnSuperadditiveGames) {
  // For superadditive games phi_i >= V({i}).
  const auto g = random_superadditive_game(5, GetParam());
  ASSERT_TRUE(is_superadditive(g));
  const auto phi = shapley_exact(g);
  for (int i = 0; i < 5; ++i) {
    EXPECT_GE(phi[static_cast<std::size_t>(i)] + 1e-9,
              g.value(Coalition::single(i)));
  }
}

TEST_P(RandomGame, MonteCarloWithinFiveSigma) {
  const auto g = make(6);
  const auto exact = shapley_exact(g);
  const auto mc = shapley_monte_carlo(g, 4000, GetParam() ^ 0x5eedULL);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(mc.phi[i], exact[i], 5.0 * mc.standard_error[i] + 1e-6)
        << "player " << i << " seed " << GetParam();
  }
}

TEST_P(RandomGame, NucleolusIsEfficientAndInNonEmptyCore) {
  const auto g = make(4);
  const auto nuc = nucleolus(g);
  ASSERT_TRUE(nuc.solved);
  EXPECT_NEAR(
      std::accumulate(nuc.allocation.begin(), nuc.allocation.end(), 0.0),
      g.grand_value(), 1e-6);
  const auto lc = least_core(g);
  ASSERT_TRUE(lc.solved);
  if (lc.epsilon <= -1e-9) {
    EXPECT_TRUE(in_core(g, nuc.allocation, 1e-5)) << "seed " << GetParam();
  }
  // The nucleolus's worst excess always equals the least-core epsilon.
  EXPECT_NEAR(max_core_violation(g, nuc.allocation), lc.epsilon, 1e-5);
}

TEST_P(RandomGame, LeastCoreAllocationAchievesEpsilon) {
  const auto g = make(5);
  const auto lc = least_core(g);
  ASSERT_TRUE(lc.solved);
  EXPECT_LE(max_core_violation(g, lc.allocation), lc.epsilon + 1e-6);
}

TEST_P(RandomGame, ConvexGamesHaveShapleyInCore) {
  // Make the game convex by squaring a monotone base along |S|.
  const auto base = make(5);
  std::vector<double> values = base.values();
  for (std::uint64_t mask = 0; mask < values.size(); ++mask) {
    const double k = __builtin_popcountll(mask);
    values[mask] = k * k + 0.01 * values[mask];
  }
  // Perturbation can break convexity; skip when it does.
  const TabularGame g(5, std::move(values));
  if (!is_convex(g)) GTEST_SKIP() << "perturbation broke convexity";
  EXPECT_TRUE(in_core(g, shapley_exact(g)));
  const auto lc = least_core(g);
  ASSERT_TRUE(lc.solved);
  EXPECT_LE(lc.epsilon, 1e-6);
}

TEST_P(RandomGame, BanzhafAndShapleyAgreeOnSymmetrizedGames) {
  // On games depending only on |S|, all players are symmetric: both
  // indices are exactly 1/n.
  const auto base = make(5);
  std::vector<double> by_size(6, 0.0);
  for (std::uint64_t mask = 0; mask < base.values().size(); ++mask) {
    by_size[static_cast<std::size_t>(__builtin_popcountll(mask))] =
        std::max(by_size[static_cast<std::size_t>(
                     __builtin_popcountll(mask))],
                 base.values()[mask]);
  }
  std::vector<double> values(base.values().size());
  for (std::uint64_t mask = 0; mask < values.size(); ++mask) {
    values[mask] =
        by_size[static_cast<std::size_t>(__builtin_popcountll(mask))];
  }
  values[0] = 0.0;
  const TabularGame g(5, std::move(values));
  const auto phi = normalize_shares(shapley_exact(g));
  const auto beta = banzhaf_index(g);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(phi[static_cast<std::size_t>(i)], 0.2, 1e-9);
    EXPECT_NEAR(beta[static_cast<std::size_t>(i)], 0.2, 1e-9);
  }
}

TEST_P(RandomGame, OwenQuotientConsistencyOnRandomStructures) {
  const auto g = make(6);
  // Random partition of 6 players into up to 3 unions.
  sim::Xoshiro256 rng(GetParam() ^ 0xabcdULL);
  std::vector<Coalition> unions(3);
  for (int p = 0; p < 6; ++p) {
    const auto u = static_cast<std::size_t>(rng.below(3));
    unions[u] = unions[u].with(p);
  }
  CoalitionStructure cs;
  for (const auto& u : unions) {
    if (!u.empty()) cs.unions.push_back(u);
  }
  const auto owen = owen_value(g, cs);
  EXPECT_NEAR(std::accumulate(owen.begin(), owen.end(), 0.0),
              g.grand_value(), 1e-9);
  const auto quotient = quotient_game(g, cs);
  const auto union_phi = shapley_exact(quotient);
  for (std::size_t k = 0; k < cs.unions.size(); ++k) {
    double total = 0.0;
    for (const int p : cs.unions[k].members()) {
      total += owen[static_cast<std::size_t>(p)];
    }
    EXPECT_NEAR(total, union_phi[k], 1e-9) << "union " << k;
  }
}

TEST_P(RandomGame, ZeroNormalizationPreservesShapleySurplus) {
  // phi_i(V0) = phi_i(V) - V({i}) by additivity.
  const auto g = make(5);
  const auto phi = shapley_exact(g);
  const auto phi0 = shapley_exact(reference::zero_normalized(g));
  for (int i = 0; i < 5; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    EXPECT_NEAR(phi0[ui], phi[ui] - g.value(Coalition::single(i)), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGame,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace fedshare::game
