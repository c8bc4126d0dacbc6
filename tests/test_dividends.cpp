// Tests for Harsanyi dividends and the Shapley interaction index.
#include <gtest/gtest.h>

#include "core/dividends.hpp"
#include "core/shapley.hpp"
#include "game_reference.hpp"
#include "model/federation.hpp"
#include "sim/rng.hpp"

namespace fedshare::game {
namespace {

double glove_value(Coalition s) {
  const int left = s.contains(0) ? 1 : 0;
  const int right = (s.contains(1) ? 1 : 0) + (s.contains(2) ? 1 : 0);
  return std::min(left, right);
}

TabularGame random_game(int n, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> values(count, 0.0);
  for (std::uint64_t mask = 1; mask < count; ++mask) {
    values[mask] = rng.uniform(-2.0, 5.0);
  }
  return TabularGame(n, std::move(values));
}

TEST(Dividends, AdditiveGameHasOnlySingletonDividends) {
  const FunctionGame g(4, [](Coalition s) {
    double v = 0.0;
    for (const int p : s.members()) v += 1.0 + p;
    return v;
  });
  const auto d = harsanyi_dividends(g);
  for (std::uint64_t mask = 0; mask < d.size(); ++mask) {
    if (__builtin_popcountll(mask) == 1) {
      EXPECT_NEAR(d[mask], 1.0 + __builtin_ctzll(mask), 1e-12);
    } else {
      EXPECT_NEAR(d[mask], 0.0, 1e-12) << "mask " << mask;
    }
  }
}

TEST(Dividends, UnanimityGameHasASingleDividend) {
  // u_T with T = {0, 2}: V(S) = 1 iff S contains T.
  const FunctionGame g(3, [](Coalition s) {
    return (s.contains(0) && s.contains(2)) ? 1.0 : 0.0;
  });
  const auto d = harsanyi_dividends(g);
  for (std::uint64_t mask = 0; mask < d.size(); ++mask) {
    EXPECT_NEAR(d[mask], mask == 0b101 ? 1.0 : 0.0, 1e-12) << mask;
  }
  const auto phi = reference::shapley_from_dividends(g);
  EXPECT_NEAR(phi[0], 0.5, 1e-12);
  EXPECT_NEAR(phi[1], 0.0, 1e-12);
  EXPECT_NEAR(phi[2], 0.5, 1e-12);
}

TEST(Dividends, MoebiusZetaRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TabularGame g = random_game(5, seed);
    const auto d = harsanyi_dividends(g);
    const TabularGame back = reference::game_from_dividends(5, d);
    for (std::uint64_t mask = 0; mask < d.size(); ++mask) {
      ASSERT_NEAR(back.values()[mask], g.values()[mask], 1e-9)
          << "seed " << seed << " mask " << mask;
    }
  }
}

TEST(Dividends, ShapleyFromDividendsMatchesExact) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TabularGame g = random_game(6, seed);
    const auto a = shapley_exact(g);
    const auto b = reference::shapley_from_dividends(g);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-9) << "seed " << seed;
    }
  }
}

TEST(Dividends, GameFromDividendsValidates) {
  EXPECT_THROW((void)reference::game_from_dividends(2, {0.0, 1.0}),
               std::invalid_argument);
}

TEST(InteractionIndex, GloveGameComplementsAndSubstitutes) {
  const FunctionGame g(3, glove_value);
  const auto index = interaction_index(g);
  // Left and right gloves are complements; the two right gloves are
  // substitutes.
  EXPECT_GT(index[0][1], 0.0);
  EXPECT_GT(index[0][2], 0.0);
  EXPECT_LT(index[1][2], 0.0);
  // Symmetry and zero diagonal.
  EXPECT_DOUBLE_EQ(index[0][1], index[1][0]);
  EXPECT_DOUBLE_EQ(index[1][1], 0.0);
}

TEST(InteractionIndex, AdditiveGameHasNoInteraction) {
  const FunctionGame g(4, [](Coalition s) {
    return 3.0 * s.size();
  });
  const auto index = interaction_index(g);
  for (const auto& row : index) {
    for (const double v : row) EXPECT_NEAR(v, 0.0, 1e-12);
  }
}

TEST(InteractionIndex, DiversityThresholdsCreateComplementarity) {
  // The paper's Fig. 4 economy: with l = 0 facilities are perfect
  // substitutes-free (additive, zero interaction); with l = 1250 only
  // the grand coalition serves and every pair is complementary.
  std::vector<model::FacilityConfig> configs{
      {"F1", 100, 1.0, 1.0}, {"F2", 400, 1.0, 1.0}, {"F3", 800, 1.0, 1.0}};
  {
    model::Federation fed(model::LocationSpace::disjoint(configs),
                          model::DemandProfile::single_experiment(0.0));
    const auto index = interaction_index(fed.build_game());
    EXPECT_NEAR(index[0][1], 0.0, 1e-9);
    EXPECT_NEAR(index[1][2], 0.0, 1e-9);
  }
  {
    model::Federation fed(model::LocationSpace::disjoint(configs),
                          model::DemandProfile::single_experiment(1250.0));
    const auto index = interaction_index(fed.build_game());
    EXPECT_GT(index[0][1], 0.0);
    EXPECT_GT(index[0][2], 0.0);
    EXPECT_GT(index[1][2], 0.0);
  }
  {
    // Intermediate threshold l = 150: facility 1 is worthless alone, so
    // it complements both big facilities (d_12 = d_13 = 100 > 0), while
    // facilities 2 and 3 substitute for each other in unlocking it
    // (d_23 = 0, d_123 = -100 -> I_23 = -50).
    model::Federation fed(model::LocationSpace::disjoint(configs),
                          model::DemandProfile::single_experiment(150.0));
    const auto index = interaction_index(fed.build_game());
    EXPECT_NEAR(index[0][1], 50.0, 1e-9);
    EXPECT_NEAR(index[0][2], 50.0, 1e-9);
    EXPECT_NEAR(index[1][2], -50.0, 1e-9);
  }
}

}  // namespace
}  // namespace fedshare::game
