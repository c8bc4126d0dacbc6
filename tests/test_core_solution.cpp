// Tests for core membership, least-core, and the nucleolus, including
// its pre-kernel property against the surplus oracle in
// tests/nucleolus_reference.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/properties.hpp"
#include "core/shapley.hpp"
#include "core/symmetry.hpp"
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

// One player has no excess row: no LP, no level, and V(N) is the answer.
TEST(Nucleolus, SinglePlayerGetsEverything) {
  const TabularGame g(1, {0.0, 7.0});
  const NucleolusResult r = nucleolus(g);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.allocation[0], 7.0, 1e-9);
  EXPECT_EQ(r.lps_solved, 0u);
  EXPECT_TRUE(r.levels.empty());
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

// kMaxExcessRows = 2^15 rows: n = 15 has 2^15 - 2 dense excess rows, the
// largest game that fits, and n = 16 the smallest that does not. The
// test games are |S|^2 plus a bonus for one singleton-type player.
FunctionGame squared_plus_bonus(int n, int lucky) {
  return FunctionGame(n, [lucky](Coalition s) {
    const double k = s.size();
    return k * k + (s.contains(lucky) ? 1.0 : 0.0);
  });
}

// Players 0..m-1 form one type, every other player is its own type.
PlayerPartition one_type_of(int m, int n) {
  std::vector<int> type_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    type_of[static_cast<std::size_t>(i)] = i < m ? 0 : i - m + 1;
  }
  return PlayerPartition::from_type_of(type_of);
}

TEST(LeastCore, RejectsOversizedGames) {
  try {
    (void)least_core(squared_plus_bonus(16, 0));
    FAIL() << "least_core accepted 65534 excess rows";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "least_core: " + excess_rows_refusal(65534));
  }
}

TEST(Nucleolus, RejectsOversizedGames) {
  EXPECT_THROW((void)nucleolus(squared_plus_bonus(16, 0)),
               std::invalid_argument);
}

// The largest games under the ceiling, one per formulation: dense n = 15
// (32766 rows) and n = 16 as one triple plus 13 singletons (4 * 2^13 - 2
// = 32766 orbit rows). Both solve, and least_core is the dense run's
// first round.
TEST(Nucleolus, SolvesAtTheExcessRowCeiling) {
  const TabularGame dense_game = tabulate(squared_plus_bonus(15, 0));
  const NucleolusResult dense = nucleolus(dense_game);
  ASSERT_TRUE(dense.solved);
  EXPECT_EQ(dense.excess_rows, 32766u);
  const LeastCoreResult lc = least_core(dense_game);
  ASSERT_TRUE(lc.solved);
  EXPECT_EQ(lc.epsilon, dense.levels[0]);
  EXPECT_NEAR(max_core_violation(dense_game, dense.allocation), lc.epsilon,
              1e-9);

  const FunctionGame typed = squared_plus_bonus(16, 15);
  const QuotientGame quotient(typed, one_type_of(3, 16));
  const NucleolusResult orbit = nucleolus_quotient(quotient);
  ASSERT_TRUE(orbit.solved);
  EXPECT_EQ(orbit.excess_rows, 32766u);
  EXPECT_NEAR(
      std::accumulate(orbit.allocation.begin(), orbit.allocation.end(), 0.0),
      typed.grand_value(), 1e-9 * typed.grand_value());
  EXPECT_EQ(orbit.allocation[0], orbit.allocation[2]);
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
