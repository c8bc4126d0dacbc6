// Integration tests pinning the engine to the paper's worked numbers.
//
// Sec. 4.1 (three facilities, L = (100, 400, 800), one experiment,
// d = 1): the paper prints V({1}) = 0, V({2}) = 0, V({3}) = 800,
// V({1,2}) = 500, V(N) = 1300 (and V({2,3}) = 1300, a typo for 1200 =
// u(400 + 800)). From those values phi-hat_2 = 17/78 ~ 0.218; the
// paper's quoted phi-hat_2 = 2/13 corresponds to the region just above
// l = 500 where {1,2} can no longer serve the customer (V({1,2}) = 0) —
// both facts are asserted below.
#include <gtest/gtest.h>

#include <numeric>

#include "core/core_solution.hpp"
#include "core/properties.hpp"
#include "core/sharing.hpp"
#include "model/federation.hpp"
#include "game_reference.hpp"

namespace fedshare {
namespace {

using game::reference::coalition_of;

model::Federation fig4_federation(double threshold, double exponent = 1.0) {
  std::vector<model::FacilityConfig> configs{
      {"F1", 100, 1.0, 1.0}, {"F2", 400, 1.0, 1.0}, {"F3", 800, 1.0, 1.0}};
  return model::Federation(
      model::LocationSpace::disjoint(configs),
      model::DemandProfile::single_experiment(threshold, exponent));
}

TEST(PaperSec41, CoalitionValuesAtL500) {
  const auto g = fig4_federation(500.0).build_game();
  EXPECT_DOUBLE_EQ(g.value(game::Coalition::single(0)), 0.0);
  EXPECT_DOUBLE_EQ(g.value(game::Coalition::single(1)), 0.0);
  EXPECT_DOUBLE_EQ(g.value(game::Coalition::single(2)), 800.0);
  EXPECT_DOUBLE_EQ(g.value(coalition_of({0, 1})), 500.0);
  EXPECT_DOUBLE_EQ(g.value(coalition_of({1, 2})), 1200.0);
  EXPECT_DOUBLE_EQ(g.value(game::Coalition::grand(3)), 1300.0);
}

TEST(PaperSec41, ShapleyShareJustAboveL500IsTwoThirteenths) {
  // Above l = L1 + L2 = 500 the pair {1,2} is blocked; the paper's
  // phi-hat_2 = 2/13 and pi-hat_2 = 4/13 hold on that plateau.
  const auto fed = fig4_federation(501.0);
  const auto shares = game::shapley_shares(fed.build_game());
  EXPECT_NEAR(shares[1], 2.0 / 13.0, 1e-9);
  const auto prop = game::proportional_shares(fed.availability_weights());
  EXPECT_NEAR(prop[1], 4.0 / 13.0, 1e-9);
}

TEST(PaperSec41, ShapleyShareAtExactlyL500FromPrintedTable) {
  // With the printed V values (V({1,2}) = 500 servable at the boundary),
  // phi_2 = (500 + 400 + 2*400)/6 = 1700/6 and phi-hat_2 = 17/78.
  const auto shares = game::shapley_shares(fig4_federation(500.0).build_game());
  EXPECT_NEAR(shares[1], 1700.0 / 6.0 / 1300.0, 1e-9);
}

TEST(PaperFig4, ZeroThresholdMakesShapleyEqualProportional) {
  const auto fed = fig4_federation(0.0);
  const auto shapley = game::shapley_shares(fed.build_game());
  const auto prop = game::proportional_shares(fed.availability_weights());
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(shapley[i], prop[i], 1e-9) << "facility " << i;
  }
}

TEST(PaperFig4, GrandCoalitionOnlyRegionGivesEqualShares) {
  // For L2 + L3 = 1200 < l <= 1300 only the grand coalition serves the
  // customer: "all facilities receive an equal share even if their
  // resource contributions are very different!"
  const auto shares = game::shapley_shares(fig4_federation(1250.0).build_game());
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(shares[i], 1.0 / 3.0, 1e-9);
  }
}

TEST(PaperFig4, BeyondTotalCapacityNoValue) {
  const auto g = fig4_federation(1350.0).build_game();
  EXPECT_DOUBLE_EQ(g.grand_value(), 0.0);
}

TEST(PaperFig4, Facility1ShareDecreasesPastItsStandaloneThreshold) {
  // Above l = L1 = 100 facility 1 can no longer serve alone; its Shapley
  // share falls relative to the proportional baseline.
  const auto below = game::shapley_shares(fig4_federation(50.0).build_game());
  const auto above = game::shapley_shares(fig4_federation(150.0).build_game());
  EXPECT_LT(above[0], below[0]);
}

TEST(PaperFig4, SharesAlwaysSumToOneAcrossTheSweep) {
  for (double l = 0.0; l <= 1400.0; l += 50.0) {
    const auto shares = game::shapley_shares(fig4_federation(l).build_game());
    EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 1.0,
                1e-9)
        << "l = " << l;
  }
}

TEST(PaperFig5, LargeDPushesShapleyTowardProportional) {
  // Fig. 5 (l = 600): as d grows the convexity of the utility function
  // depresses small coalitions and Shapley approaches proportional.
  const auto fed_low = fig4_federation(600.0, 0.5);
  const auto fed_high = fig4_federation(600.0, 2.5);
  const auto prop =
      game::proportional_shares(fed_low.availability_weights());
  const auto s_low = game::shapley_shares(fed_low.build_game());
  const auto s_high = game::shapley_shares(fed_high.build_game());
  // Distance to the proportional vector shrinks with d.
  double dist_low = 0.0, dist_high = 0.0;
  for (int i = 0; i < 3; ++i) {
    dist_low += std::abs(s_low[i] - prop[i]);
    dist_high += std::abs(s_high[i] - prop[i]);
  }
  EXPECT_LT(dist_high, dist_low);
}

TEST(PaperSec321, ConcaveNoThresholdGameIsNotSuperadditive) {
  // "if our utility function is strictly concave and continuous with no
  // minimum diversity threshold and no statistical multiplexing (d < 1,
  // l = 0, t = 1) the game is not super-additive and thus not convex."
  const auto fed = fig4_federation(0.0, 0.5);
  const auto g = fed.build_game();
  EXPECT_FALSE(game::is_superadditive(g));
  EXPECT_FALSE(game::is_convex(g));
}

TEST(PaperSec321, ConvexUtilityMakesGameConvexAndCoreNonEmpty) {
  // "when d > 1 the core always exists."
  const auto fed = fig4_federation(0.0, 1.5);
  const auto g = fed.build_game();
  EXPECT_TRUE(game::is_convex(g));
  const auto lc = game::least_core(g);
  ASSERT_TRUE(lc.solved);
  EXPECT_LE(lc.epsilon, 1e-6);
}

TEST(PaperSec321, LargeThresholdRestoresCoreUnderLinearUtility) {
  // "As l grows, more small coalitions are of zero value ... turning the
  // core non-empty."
  const auto g = fig4_federation(1250.0).build_game();
  const auto lc = game::least_core(g);
  ASSERT_TRUE(lc.solved);
  EXPECT_LE(lc.epsilon, 1e-6);
  const auto shares = game::shapley_shares(g);
  std::vector<double> payoffs(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    payoffs[i] = shares[i] * g.grand_value();
  }
  EXPECT_TRUE(game::in_core(g, payoffs));
}

TEST(PaperSec41, LinearNoThresholdGameIsAdditive) {
  // d = 1, l = 0: V(S) = sum L_i, an additive game; every scheme that
  // respects dummies coincides with proportional.
  const auto g = fig4_federation(0.0).build_game();
  EXPECT_TRUE(game::is_convex(g));
  const auto nuc = game::nucleolus_shares(g);
  EXPECT_NEAR(nuc[0], 100.0 / 1300.0, 1e-6);
  EXPECT_NEAR(nuc[2], 800.0 / 1300.0, 1e-6);
}

}  // namespace
}  // namespace fedshare
