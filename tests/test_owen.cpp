// Tests for the Owen value, quotient games, and hierarchical
// federations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>

#include "core/owen.hpp"
#include "core/shapley.hpp"
#include "model/hierarchy.hpp"
#include "game_reference.hpp"

namespace fedshare {
namespace {

using game::reference::coalition_of;

double glove_value(game::Coalition s) {
  const int left = s.contains(0) ? 1 : 0;
  const int right = (s.contains(1) ? 1 : 0) + (s.contains(2) ? 1 : 0);
  return std::min(left, right);
}

game::CoalitionStructure singletons(int n) {
  game::CoalitionStructure cs;
  for (int i = 0; i < n; ++i) cs.unions.push_back(game::Coalition::single(i));
  return cs;
}

TEST(CoalitionStructure, Validation) {
  game::CoalitionStructure cs;
  EXPECT_THROW(cs.validate(2), std::invalid_argument);  // no unions
  cs.unions = {coalition_of({0, 1}), game::Coalition::single(1)};
  EXPECT_THROW(cs.validate(2), std::invalid_argument);  // overlap
  cs.unions = {game::Coalition::single(0)};
  EXPECT_THROW(cs.validate(2), std::invalid_argument);  // incomplete
  cs.unions = {game::Coalition::single(0), game::Coalition::single(1)};
  EXPECT_NO_THROW(cs.validate(2));
  EXPECT_EQ(cs.union_of(1), 1u);
  EXPECT_THROW((void)cs.union_of(5), std::invalid_argument);
}

TEST(OwenValue, SingletonStructureEqualsShapley) {
  const game::FunctionGame g(3, glove_value);
  const auto owen = game::owen_value(g, singletons(3));
  const auto shapley = game::shapley_exact(g);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(owen[static_cast<std::size_t>(i)],
                shapley[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(OwenValue, GrandUnionEqualsShapley) {
  const game::FunctionGame g(3, glove_value);
  game::CoalitionStructure cs;
  cs.unions = {game::Coalition::grand(3)};
  const auto owen = game::owen_value(g, cs);
  const auto shapley = game::shapley_exact(g);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(owen[static_cast<std::size_t>(i)],
                shapley[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(OwenValue, EfficiencyHolds) {
  const game::FunctionGame g(4, [](game::Coalition s) {
    const double k = s.size();
    return k * k + (s.contains(1) ? 2.0 : 0.0);
  });
  game::CoalitionStructure cs;
  cs.unions = {coalition_of({0, 1}), coalition_of({2, 3})};
  const auto owen = game::owen_value(g, cs);
  EXPECT_NEAR(std::accumulate(owen.begin(), owen.end(), 0.0),
              g.grand_value(), 1e-9);
}

TEST(OwenValue, QuotientConsistency) {
  // Each union's total Owen payoff equals its Shapley value in the
  // quotient game.
  const game::FunctionGame g(4, [](game::Coalition s) {
    double v = 1.5 * s.size();
    if (s.contains(0) && s.contains(2)) v += 5.0;
    if (s.size() >= 3) v += 2.0;
    return s.empty() ? 0.0 : v;
  });
  game::CoalitionStructure cs;
  cs.unions = {coalition_of({0, 1}), coalition_of({2}),
               coalition_of({3})};
  const auto owen = game::owen_value(g, cs);
  const auto quotient = game::quotient_game(g, cs);
  const auto union_shapley = game::shapley_exact(quotient);
  for (std::size_t k = 0; k < cs.unions.size(); ++k) {
    double union_total = 0.0;
    for (const int p : cs.unions[k].members()) {
      union_total += owen[static_cast<std::size_t>(p)];
    }
    EXPECT_NEAR(union_total, union_shapley[k], 1e-9) << "union " << k;
  }
}

TEST(OwenValue, UnionizingChangesBargainingPower) {
  // In the glove game, the two right-glove holders bargaining as a bloc
  // recover value from the left-glove monopolist.
  const game::FunctionGame g(3, glove_value);
  const auto separate = game::owen_value(g, singletons(3));
  game::CoalitionStructure bloc;
  bloc.unions = {game::Coalition::single(0), coalition_of({1, 2})};
  const auto unified = game::owen_value(g, bloc);
  EXPECT_GT(unified[1] + unified[2], separate[1] + separate[2]);
  EXPECT_LT(unified[0], separate[0]);
}

// Brute-force Owen reference: average marginal contributions over every
// player ordering consistent with the structure (unions permuted, each
// union's members contiguous and permuted internally).
std::vector<double> owen_by_orderings(const game::Game& g,
                                      const game::CoalitionStructure& cs) {
  const int n = g.num_players();
  std::vector<std::size_t> union_order(cs.unions.size());
  std::iota(union_order.begin(), union_order.end(), std::size_t{0});
  std::vector<double> sum(static_cast<std::size_t>(n), 0.0);
  std::uint64_t orderings = 0;
  do {
    // Member permutations within each union, combined recursively.
    std::vector<std::vector<int>> members;
    for (const std::size_t u : union_order) {
      members.push_back(cs.unions[u].members());
      std::sort(members.back().begin(), members.back().end());
    }
    std::function<void(std::size_t, game::Coalition, double)> walk =
        [&](std::size_t block, game::Coalition prefix, double prev) {
          if (block == members.size()) {
            ++orderings;
            return;
          }
          std::vector<int>& m = members[block];
          do {
            game::Coalition p = prefix;
            double value = prev;
            // Temporarily accumulate marginals for this inner ordering,
            // then recurse; contributions are added per full ordering,
            // so scale at the end by the count.
            std::vector<std::pair<int, double>> marginals;
            for (const int player : m) {
              const game::Coalition next = p.with(player);
              const double v = g.value(next);
              marginals.emplace_back(player, v - value);
              p = next;
              value = v;
            }
            // Count how many full orderings extend this prefix: product
            // of factorials of remaining blocks.
            std::uint64_t extensions = 1;
            for (std::size_t b = block + 1; b < members.size(); ++b) {
              std::uint64_t f = 1;
              for (std::size_t k = 2; k <= members[b].size(); ++k) f *= k;
              extensions *= f;
            }
            for (const auto& [player, marginal] : marginals) {
              sum[static_cast<std::size_t>(player)] +=
                  marginal * static_cast<double>(extensions);
            }
            walk(block + 1, p, value);
          } while (std::next_permutation(m.begin(), m.end()));
        };
    walk(0, game::Coalition(), 0.0);
  } while (std::next_permutation(union_order.begin(), union_order.end()));
  for (double& s : sum) s /= static_cast<double>(orderings);
  return sum;
}

TEST(OwenValue, MatchesBruteForceOrderingAverage) {
  const game::FunctionGame g(5, [](game::Coalition s) {
    double v = 1.7 * s.size();
    if (s.contains(0) && s.contains(4)) v += 3.5;
    if (s.size() >= 3) v += 1.25;
    return s.empty() ? 0.0 : v;
  });
  game::CoalitionStructure cs;
  cs.unions = {coalition_of({0, 1}), coalition_of({2, 3}),
               game::Coalition::single(4)};
  const auto fast = game::owen_value(g, cs);
  const auto brute = owen_by_orderings(g, cs);
  ASSERT_EQ(fast.size(), brute.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], brute[i], 1e-9) << "player " << i;
  }
}

TEST(QuotientGame, ValuesMatchUnionsOfUnions) {
  const game::FunctionGame g(3, glove_value);
  game::CoalitionStructure cs;
  cs.unions = {game::Coalition::single(0), coalition_of({1, 2})};
  const auto q = game::quotient_game(g, cs);
  EXPECT_EQ(q.num_players(), 2);
  EXPECT_DOUBLE_EQ(q.value(game::Coalition::single(0)), 0.0);
  EXPECT_DOUBLE_EQ(q.value(game::Coalition::single(1)), 0.0);
  EXPECT_DOUBLE_EQ(q.value(game::Coalition::grand(2)), 1.0);
}

model::HierarchicalFederation planetlab_hierarchy() {
  std::vector<model::Region> regions(3);
  regions[0].name = "PLC";
  regions[0].members = {{"PLC-core", 300, 4.0, 1.0}};
  regions[1].name = "PLE";
  regions[1].members = {{"PLE-core", 150, 4.0, 1.0},
                        {"G-Lab", 60, 3.0, 1.0},
                        {"EmanicsLab", 30, 2.0, 1.0}};
  regions[2].name = "PLJ";
  regions[2].members = {{"PLJ-core", 80, 3.0, 1.0}};
  return model::HierarchicalFederation(
      std::move(regions), model::DemandProfile::uniform(10, 450.0));
}

TEST(Hierarchy, FlattensRegions) {
  const auto fed = planetlab_hierarchy();
  EXPECT_EQ(fed.num_regions(), 3);
  EXPECT_EQ(fed.num_facilities(), 5);
  EXPECT_EQ(fed.region_name(1), "PLE");
  EXPECT_EQ(fed.region_of(0), 0u);
  EXPECT_EQ(fed.region_of(2), 1u);  // G-Lab inside PLE
  EXPECT_EQ(fed.region_of(4), 2u);
  EXPECT_THROW((void)fed.region_of(9), std::out_of_range);
  EXPECT_THROW((void)fed.region_name(7), std::out_of_range);
}

TEST(Hierarchy, OwenSharesSumToRegionShares) {
  const auto fed = planetlab_hierarchy();
  const auto owen = fed.owen_shares();
  const auto regions = fed.region_shares();
  for (int r = 0; r < fed.num_regions(); ++r) {
    double total = 0.0;
    for (int f = 0; f < fed.num_facilities(); ++f) {
      if (fed.region_of(f) == static_cast<std::size_t>(r)) {
        total += owen[static_cast<std::size_t>(f)];
      }
    }
    EXPECT_NEAR(total, regions[static_cast<std::size_t>(r)], 1e-9)
        << fed.region_name(static_cast<std::size_t>(r));
  }
}

TEST(Hierarchy, SharesSumToOne) {
  const auto fed = planetlab_hierarchy();
  for (const auto& shares :
       {fed.owen_shares(), fed.flat_shapley_shares(), fed.region_shares()}) {
    EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 1.0,
                1e-9);
  }
}

TEST(Hierarchy, BlocMembershipMatters) {
  // The PLE members negotiate as a bloc under Owen; their structure-
  // consistent shares differ from hierarchy-blind Shapley.
  const auto fed = planetlab_hierarchy();
  const auto owen = fed.owen_shares();
  const auto flat = fed.flat_shapley_shares();
  double diff = 0.0;
  for (std::size_t i = 0; i < owen.size(); ++i) {
    diff += std::abs(owen[i] - flat[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(Hierarchy, RejectsEmptyRegions) {
  std::vector<model::Region> regions(1);
  regions[0].name = "empty";
  EXPECT_THROW(model::HierarchicalFederation(
                   regions, model::DemandProfile::single_experiment(1.0)),
               std::invalid_argument);
  EXPECT_THROW(model::HierarchicalFederation(
                   {}, model::DemandProfile::single_experiment(1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace fedshare
