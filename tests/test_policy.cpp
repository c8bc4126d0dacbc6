// Tests for the policy layer: sharing policies, incentive curves,
// provision-game equilibrium, and offline weights.
#include <gtest/gtest.h>

#include <numeric>

#include "policy/equilibrium.hpp"
#include "policy/incentives.hpp"
#include "policy/policy.hpp"
#include "policy/weights.hpp"

namespace fedshare::policy {
namespace {

std::vector<model::FacilityConfig> three_configs() {
  return {{"F1", 100, 1.0, 1.0}, {"F2", 400, 1.0, 1.0},
          {"F3", 800, 1.0, 1.0}};
}

model::Federation paper_federation(double threshold) {
  return model::Federation(model::LocationSpace::disjoint(three_configs()),
                           model::DemandProfile::single_experiment(threshold));
}

TEST(Policies, AllShareVectorsSumToOne) {
  const auto fed = paper_federation(500.0);
  const ShapleyPolicy shapley;
  const ProportionalAvailabilityPolicy proportional;
  for (const SharingPolicy* policy :
       {static_cast<const SharingPolicy*>(&shapley),
        static_cast<const SharingPolicy*>(&proportional)}) {
    const auto shares = policy->shares(fed);
    ASSERT_EQ(shares.size(), 3u) << policy->name();
    EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 1.0,
                1e-9)
        << policy->name();
  }
}

TEST(Policies, ProportionalIgnoresDemandShapleyDoesNot) {
  const auto low = paper_federation(0.0);
  const auto high = paper_federation(1250.0);
  const ProportionalAvailabilityPolicy prop;
  const ShapleyPolicy shapley;
  EXPECT_EQ(prop.shares(low), prop.shares(high));
  // With l = 1250 only the grand coalition can serve: equal Shapley
  // shares despite very different contributions (the Fig. 4 tail).
  const auto s = shapley.shares(high);
  EXPECT_NEAR(s[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(s[2], 1.0 / 3.0, 1e-9);
  // With l = 0 Shapley equals proportional (the Fig. 4 head).
  const auto s0 = shapley.shares(low);
  EXPECT_NEAR(s0[0], 100.0 / 1300.0, 1e-9);
  EXPECT_NEAR(s0[2], 800.0 / 1300.0, 1e-9);
}

TEST(Incentives, CurveTracksLocationSweep) {
  const ShapleyPolicy policy;
  const auto curve = provision_curve(
      three_configs(), /*facility_index=*/0, {0, 100, 200, 400},
      model::DemandProfile::single_experiment(500.0), policy);
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_EQ(curve[0].locations, 0);
  // More locations never reduce the facility's Shapley payoff here.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].payoff + 1e-9, curve[i - 1].payoff);
  }
}

TEST(Incentives, RejectsBadInputs) {
  const ShapleyPolicy policy;
  EXPECT_THROW((void)provision_curve(three_configs(), 5, {1},
                                     model::DemandProfile::single_experiment(0),
                                     policy),
               std::invalid_argument);
  EXPECT_THROW((void)provision_curve(three_configs(), 0, {-1},
                                     model::DemandProfile::single_experiment(0),
                                     policy),
               std::invalid_argument);
}

ProvisionGame small_game() {
  ProvisionGame g;
  g.base_configs = three_configs();
  g.strategy_grids = {{0, 100}, {0, 400}, {0, 800}};
  g.demand = model::DemandProfile::single_experiment(500.0);
  g.cost.alpha = 0.1;  // mild per-location cost
  return g;
}

TEST(Equilibrium, PayoffsIncludeCosts) {
  const ShapleyPolicy policy;
  const auto game = small_game();
  const auto payoffs = profile_payoffs(game, policy, {1, 1, 1});
  // Facility 3's Shapley payoff at l=500: marginals over the six
  // orderings sum to 800+900+800+1200+800+800 = 5300; minus 0.1 * 800.
  EXPECT_NEAR(payoffs[2], 5300.0 / 6.0 - 80.0, 1e-6);
}

TEST(Equilibrium, BestResponseConverges) {
  const ShapleyPolicy policy;
  const auto game = small_game();
  const auto result =
      best_response_dynamics(game, policy, {0, 0, 0}, /*max_rounds=*/20);
  EXPECT_TRUE(result.converged);
  // Contributing is profitable for everyone under these mild costs.
  EXPECT_EQ(result.profile, (Profile{1, 1, 1}));
}

TEST(Equilibrium, FullContributionIsNashUnderMildCosts) {
  const ShapleyPolicy policy;
  const auto game = small_game();
  const auto equilibria = pure_nash_equilibria(game, policy);
  bool found_full = false;
  for (const auto& profile : equilibria) {
    if (profile == Profile{1, 1, 1}) found_full = true;
  }
  EXPECT_TRUE(found_full);
}

TEST(Equilibrium, ProhibitiveCostsKillProvision) {
  const ShapleyPolicy policy;
  auto game = small_game();
  game.cost.alpha = 100.0;  // cost far above any attainable payoff
  const auto result = best_response_dynamics(game, policy, {1, 1, 1});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.profile, (Profile{0, 0, 0}));
}

TEST(Equilibrium, ValidatesInputs) {
  const ShapleyPolicy policy;
  ProvisionGame bad = small_game();
  bad.strategy_grids.pop_back();
  EXPECT_THROW((void)profile_payoffs(bad, policy, {0, 0}),
               std::invalid_argument);
  const auto game = small_game();
  EXPECT_THROW((void)profile_payoffs(game, policy, {0, 0, 5}),
               std::invalid_argument);
  ProvisionGame huge = small_game();
  huge.strategy_grids = {std::vector<int>(20, 1), std::vector<int>(20, 1),
                         std::vector<int>(20, 1)};
  EXPECT_THROW((void)pure_nash_equilibria(huge, policy),
               std::invalid_argument);
}

TEST(OfflineWeights, AveragesAcrossScenarios) {
  const auto space = model::LocationSpace::disjoint(three_configs());
  // Scenario A: l = 0 -> proportional shares. Scenario B: l = 1250 ->
  // equal shares. 50/50 mix averages the two.
  const std::vector<DemandScenario> scenarios{
      {model::DemandProfile::single_experiment(0.0), 0.5},
      {model::DemandProfile::single_experiment(1250.0), 0.5}};
  const auto weights = offline_shapley_weights(space, scenarios);
  EXPECT_NEAR(weights[0], 0.5 * (100.0 / 1300.0) + 0.5 / 3.0, 1e-9);
  EXPECT_NEAR(std::accumulate(weights.begin(), weights.end(), 0.0), 1.0,
              1e-9);
}

TEST(OfflineWeights, Validates) {
  const auto space = model::LocationSpace::disjoint(three_configs());
  EXPECT_THROW((void)offline_shapley_weights(space, {}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)offline_shapley_weights(
          space, {{model::DemandProfile::single_experiment(0.0), -1.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)offline_shapley_weights(
          space, {{model::DemandProfile::single_experiment(0.0), 0.0}}),
      std::invalid_argument);
}

TEST(WeightDrift, MaxAbsoluteDeviation) {
  EXPECT_NEAR(weight_drift({0.2, 0.8}, {0.25, 0.75}), 0.05, 1e-12);
  EXPECT_THROW((void)weight_drift({0.5}, {0.5, 0.5}), std::invalid_argument);
}

}  // namespace
}  // namespace fedshare::policy
