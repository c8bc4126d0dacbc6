// Tests for the sharing-scheme framework.
#include <gtest/gtest.h>

#include <numeric>

#include "core/sharing.hpp"
#include "runtime/budget.hpp"

namespace fedshare::game {
namespace {

double glove_value(Coalition s) {
  const int left = s.contains(0) ? 1 : 0;
  const int right = (s.contains(1) ? 1 : 0) + (s.contains(2) ? 1 : 0);
  return std::min(left, right);
}

TEST(EqualShares, SplitsEvenly) {
  const auto s = equal_shares(4);
  for (const double v : s) EXPECT_NEAR(v, 0.25, 1e-12);
  EXPECT_THROW((void)equal_shares(0), std::invalid_argument);
}

TEST(ProportionalShares, NormalizesWeights) {
  const auto s = proportional_shares({1.0, 2.0, 5.0});
  EXPECT_NEAR(s[0], 0.125, 1e-12);
  EXPECT_NEAR(s[2], 0.625, 1e-12);
}

TEST(ProportionalShares, ZeroWeightsFallBackToEqual) {
  const auto s = proportional_shares({0.0, 0.0});
  EXPECT_NEAR(s[0], 0.5, 1e-12);
}

TEST(ProportionalShares, RejectsNegativeAndEmpty) {
  EXPECT_THROW((void)proportional_shares({-1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)proportional_shares({}), std::invalid_argument);
}

TEST(ShapleyShares, SumToOne) {
  const FunctionGame g(3, glove_value);
  const auto s = shapley_shares(g);
  EXPECT_NEAR(std::accumulate(s.begin(), s.end(), 0.0), 1.0, 1e-12);
  EXPECT_NEAR(s[0], 2.0 / 3.0, 1e-12);
}

TEST(NucleolusShares, MatchCorePointForGloveGame) {
  const FunctionGame g(3, glove_value);
  const auto s = nucleolus_shares(g);
  EXPECT_NEAR(s[0], 1.0, 1e-6);
  EXPECT_NEAR(s[1], 0.0, 1e-6);
}

TEST(NucleolusShares, ZeroValueGameFallsBackToEqual) {
  const FunctionGame g(2, [](Coalition) { return 0.0; });
  const auto s = nucleolus_shares(g);
  EXPECT_NEAR(s[0], 0.5, 1e-12);
}

TEST(CompareSchemes, ProducesAllSchemes) {
  const FunctionGame g(3, glove_value);
  const auto outcomes =
      compare_schemes(g, {1.0, 1.0, 1.0}, {2.0, 1.0, 1.0}).outcomes;
  // shapley, prop-availability, prop-consumption, equal, nucleolus,
  // banzhaf.
  ASSERT_EQ(outcomes.size(), 6u);
  for (const auto& o : outcomes) {
    const double total =
        std::accumulate(o.shares.begin(), o.shares.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9) << to_string(o.scheme);
    ASSERT_EQ(o.payoffs.size(), 3u);
    EXPECT_NEAR(o.payoffs[0], o.shares[0] * g.grand_value(), 1e-12);
  }
}

TEST(CompareSchemes, SkipsProportionalWhenWeightsEmpty) {
  const FunctionGame g(3, glove_value);
  const auto outcomes = compare_schemes(g, {}, {}).outcomes;
  for (const auto& o : outcomes) {
    EXPECT_NE(o.scheme, Scheme::kProportionalAvailability);
    EXPECT_NE(o.scheme, Scheme::kProportionalConsumption);
  }
}

TEST(CompareSchemes, RejectsWrongWeightCount) {
  const FunctionGame g(3, glove_value);
  EXPECT_THROW((void)compare_schemes(g, {1.0}, {}), std::invalid_argument);
  EXPECT_THROW((void)compare_schemes(g, {}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(CompareSchemes, CoreFlagsAreConsistent) {
  const FunctionGame g(3, glove_value);
  const auto outcomes = compare_schemes(g, {}, {}).outcomes;
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.in_core.has_value()) << to_string(o.scheme);
    if (o.scheme == Scheme::kNucleolus) {
      EXPECT_TRUE(*o.in_core);  // glove core is non-empty
    }
    if (o.scheme == Scheme::kEqual) {
      EXPECT_FALSE(*o.in_core);
    }
  }
}

// A nucleolus LP chain that fails without any budget (here: an
// iteration cap too small for phase 1) is a recorded skip, not a throw.
TEST(CompareSchemes, FailedNucleolusChainIsASkip) {
  const FunctionGame g(3, glove_value);
  lp::SimplexOptions options;
  options.max_iterations = 0;
  const SchemeComparison c = compare_schemes(g, {}, {}, options);
  ASSERT_EQ(c.skipped.size(), 1u);
  EXPECT_EQ(c.skipped[0].note(), "nucleolus: skipped (LP chain failed)");
  EXPECT_FALSE(c.skipped[0].size_limit);
  EXPECT_TRUE(c.cut_short());
  for (const auto& o : c.outcomes) {
    EXPECT_NE(o.scheme, Scheme::kNucleolus);
    EXPECT_TRUE(o.in_core.has_value()) << to_string(o.scheme);
  }
}

// A node cap that trips inside the Shapley lattice, after the (free)
// table read, leaves a Monte-Carlo Shapley row. Its core verdict would
// judge the estimate, not the Shapley value, so it stays unchecked; the
// rows computed from the complete table keep theirs.
TEST(CompareSchemes, MonteCarloShapleyLeavesItsCoreUnchecked) {
  const TabularGame g = tabulate(FunctionGame(4, [](Coalition c) {
    const double k = c.size();
    return k * k;
  }));
  // Units exact Shapley charges on the table, measured rather than
  // assumed; one fewer trips it.
  const runtime::ComputeBudget shapley_budget;
  ASSERT_TRUE(shapley_exact_budgeted(g, shapley_budget).has_value());
  ASSERT_GT(shapley_budget.used(), 0u);
  const runtime::ComputeBudget budget =
      runtime::ComputeBudget().cap_nodes(shapley_budget.used() - 1);
  lp::SimplexOptions options;
  options.budget = &budget;
  const SchemeComparison c = compare_schemes(g, {}, {}, options);
  EXPECT_EQ(c.shapley_engine, ShapleyEngine::kMonteCarlo);
  EXPECT_TRUE(c.cut_short());
  ASSERT_FALSE(c.outcomes.empty());
  EXPECT_EQ(c.outcomes[0].scheme, Scheme::kShapley);
  EXPECT_FALSE(c.outcomes[0].in_core.has_value());
  EXPECT_STREQ(in_core_label(c.outcomes[0]), "n/a");
  for (std::size_t j = 1; j < c.outcomes.size(); ++j) {
    EXPECT_TRUE(c.outcomes[j].in_core.has_value())
        << to_string(c.outcomes[j].scheme);
  }
}

TEST(SchemeNames, AreStable) {
  EXPECT_STREQ(to_string(Scheme::kShapley), "shapley");
  EXPECT_STREQ(to_string(Scheme::kProportionalAvailability),
               "prop-availability");
  EXPECT_STREQ(to_string(Scheme::kProportionalConsumption),
               "prop-consumption");
  EXPECT_STREQ(to_string(Scheme::kEqual), "equal");
  EXPECT_STREQ(to_string(Scheme::kNucleolus), "nucleolus");
  EXPECT_STREQ(to_string(Scheme::kBanzhaf), "banzhaf");
}

}  // namespace
}  // namespace fedshare::game
