// Tests for core membership, least-core, and the nucleolus, including
// its pre-kernel property against the surplus oracle in
// tests/nucleolus_reference.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/properties.hpp"
#include "core/shapley.hpp"
#include "nucleolus_reference.hpp"
#include "sim/rng.hpp"

namespace fedshare::game {
namespace {

double glove_value(Coalition s) {
  const int left = s.contains(0) ? 1 : 0;
  const int right = (s.contains(1) ? 1 : 0) + (s.contains(2) ? 1 : 0);
  return std::min(left, right);
}

TEST(LeastCore, GloveGameCoreIsNonEmpty) {
  const FunctionGame g(3, glove_value);
  const LeastCoreResult r = least_core(g);
  ASSERT_TRUE(r.solved);
  EXPECT_LE(r.epsilon, 1e-9);
  EXPECT_TRUE(in_core(g, r.allocation));
  // The glove game's core is the single point (1, 0, 0).
  EXPECT_NEAR(r.allocation[0], 1.0, 1e-6);
  EXPECT_NEAR(r.allocation[1], 0.0, 1e-6);
  EXPECT_NEAR(r.allocation[2], 0.0, 1e-6);
}

TEST(LeastCore, EmptyCoreDetected) {
  // Majority game: any 2 of 3 players get 1. Core is empty.
  const FunctionGame g(3, [](Coalition s) {
    return s.size() >= 2 ? 1.0 : 0.0;
  });
  const LeastCoreResult r = least_core(g);
  ASSERT_TRUE(r.solved);
  EXPECT_GT(r.epsilon, 1e-6);
}

TEST(InCore, ChecksEfficiencyAndRationality) {
  const FunctionGame g(3, glove_value);
  EXPECT_TRUE(in_core(g, {1.0, 0.0, 0.0}));
  EXPECT_FALSE(in_core(g, {0.5, 0.25, 0.25}));  // {0,1} can get 1 > 0.75
  EXPECT_FALSE(in_core(g, {0.5, 0.0, 0.0}));    // inefficient
  EXPECT_THROW((void)in_core(g, {1.0, 0.0}), std::invalid_argument);
}

TEST(MaxCoreViolation, MeasuresWorstCoalition) {
  const FunctionGame g(3, glove_value);
  // Equal split: coalition {0,1} is worth 1 but receives 2/3.
  const double v = max_core_violation(g, {1.0 / 3, 1.0 / 3, 1.0 / 3});
  EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
  EXPECT_LE(max_core_violation(g, {1.0, 0.0, 0.0}), 1e-12);
}

TEST(ConvexGame, ShapleyLiesInCore) {
  // Convex game => core non-empty and contains the Shapley value.
  const FunctionGame g(4, [](Coalition s) {
    const double k = s.size();
    return k * k;
  });
  ASSERT_TRUE(is_convex(g));
  const LeastCoreResult lc = least_core(g);
  ASSERT_TRUE(lc.solved);
  EXPECT_LE(lc.epsilon, 1e-6);
  EXPECT_TRUE(in_core(g, shapley_exact(g)));
}

TEST(Nucleolus, SinglePlayerGetsEverything) {
  const TabularGame g(1, {0.0, 7.0});
  const NucleolusResult r = nucleolus(g);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.allocation[0], 7.0, 1e-9);
}

TEST(Nucleolus, TwoPlayerSplitsSurplusEqually) {
  // v1 = 1, v2 = 3, v12 = 10: nucleolus = standalone + equal surplus
  // = (1 + 3, 3 + 3) = (4, 6).
  const TabularGame g(2, {0.0, 1.0, 3.0, 10.0});
  const NucleolusResult r = nucleolus(g);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.allocation[0], 4.0, 1e-7);
  EXPECT_NEAR(r.allocation[1], 6.0, 1e-7);
}

TEST(Nucleolus, GloveGameMatchesCorePoint) {
  const FunctionGame g(3, glove_value);
  const NucleolusResult r = nucleolus(g);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.allocation[0], 1.0, 1e-6);
  EXPECT_NEAR(r.allocation[1], 0.0, 1e-6);
  EXPECT_NEAR(r.allocation[2], 0.0, 1e-6);
}

TEST(Nucleolus, LiesInNonEmptyCore) {
  // Paper Sec. 3.2.3: if the core is non-empty the nucleolus is in it.
  const FunctionGame g(4, [](Coalition s) {
    const double k = s.size();
    return k * k + (s.contains(0) ? k : 0.0);
  });
  const LeastCoreResult lc = least_core(g);
  ASSERT_TRUE(lc.solved);
  ASSERT_LE(lc.epsilon, 1e-6);
  const NucleolusResult r = nucleolus(g);
  ASSERT_TRUE(r.solved);
  EXPECT_TRUE(in_core(g, r.allocation, 1e-5));
}

TEST(Nucleolus, EfficiencyHolds) {
  const FunctionGame g(3, [](Coalition s) {
    return s.size() >= 2 ? static_cast<double>(s.size()) * 3.0 : 0.0;
  });
  const NucleolusResult r = nucleolus(g);
  ASSERT_TRUE(r.solved);
  const double total =
      std::accumulate(r.allocation.begin(), r.allocation.end(), 0.0);
  EXPECT_NEAR(total, g.grand_value(), 1e-7);
}

TEST(Nucleolus, SymmetricPlayersGetEqualPayoffs) {
  const FunctionGame g(3, [](Coalition s) {
    return s.size() >= 2 ? 1.0 : 0.0;  // majority game, empty core
  });
  const NucleolusResult r = nucleolus(g);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.allocation[0], 1.0 / 3.0, 1e-7);
  EXPECT_NEAR(r.allocation[1], 1.0 / 3.0, 1e-7);
  EXPECT_NEAR(r.allocation[2], 1.0 / 3.0, 1e-7);
}

TEST(Nucleolus, MinimizesMaxExcessBelowShapley) {
  // In the glove game the Shapley value is outside the core; the
  // nucleolus's worst excess must be no worse than Shapley's.
  const FunctionGame g(3, glove_value);
  const auto nuc = nucleolus(g);
  ASSERT_TRUE(nuc.solved);
  const auto shap = shapley_exact(g);
  EXPECT_LE(max_core_violation(g, nuc.allocation),
            max_core_violation(g, shap) + 1e-9);
}

TEST(LeastCore, RejectsOversizedGames) {
  const FunctionGame g(kMaxLeastCorePlayers + 1, [](Coalition s) {
    return static_cast<double>(s.size());
  });
  EXPECT_THROW((void)least_core(g), std::invalid_argument);
}

TEST(Nucleolus, RejectsOversizedGames) {
  const FunctionGame g(11, [](Coalition s) {
    return static_cast<double>(s.size());
  });
  EXPECT_THROW((void)nucleolus(g), std::invalid_argument);
}

TEST(Surplus, HandComputedExample) {
  // Glove game with the core allocation (1, 0, 0): s_12 looks at
  // coalitions with 1 but not 2: {0}, {0,2}; excesses 0-1=-1, 1-1=0.
  const FunctionGame g(3, glove_value);
  EXPECT_DOUBLE_EQ(reference::surplus(g, {1.0, 0.0, 0.0}, 0, 1), 0.0);
  // s_21: {1}, {1,2}: excesses 0, 0.
  EXPECT_DOUBLE_EQ(reference::surplus(g, {1.0, 0.0, 0.0}, 1, 0), 0.0);
  EXPECT_THROW((void)reference::surplus(g, {1.0, 0.0, 0.0}, 0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)reference::surplus(g, {1.0, 0.0}, 0, 1),
               std::invalid_argument);
}

TEST(Prekernel, NucleolusLiesInThePrekernel) {
  // Maschler: the nucleolus is always a pre-kernel point. Check on a
  // handful of random monotone games that every pair of players has
  // balanced surpluses at the LP solver's answer.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Xoshiro256 rng(seed);
    const int n = 3 + static_cast<int>(rng.below(2));
    const std::uint64_t count = std::uint64_t{1} << n;
    std::vector<double> values(count, 0.0);
    for (std::uint64_t mask = 1; mask < count; ++mask) {
      double best = 0.0;
      for (int p = 0; p < n; ++p) {
        if ((mask >> p) & 1u) {
          best = std::max(best, values[mask & ~(std::uint64_t{1} << p)]);
        }
      }
      values[mask] = best + rng.uniform(0.0, 3.0);
    }
    const TabularGame g(n, std::move(values));
    const auto nuc = nucleolus(g);
    ASSERT_TRUE(nuc.solved) << "seed " << seed;
    EXPECT_LE(reference::max_surplus_imbalance(g, nuc.allocation), 1e-5)
        << "seed " << seed << ": nucleolus not surplus-balanced";
  }
}

}  // namespace
}  // namespace fedshare::game
