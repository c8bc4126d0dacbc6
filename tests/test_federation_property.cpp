// End-to-end property tests of the federation value engine on random
// configurations (random facilities, overlap, demand).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <numeric>
#include <string>
#include <unordered_map>

#include "cli/runner.hpp"
#include "core/sharing.hpp"
#include "io/config.hpp"
#include "model/federation.hpp"
#include "model/value.hpp"
#include "sim/rng.hpp"

namespace fedshare::model {
namespace {

struct Scenario {
  LocationSpace space;
  DemandProfile demand;
};

Scenario random_scenario(std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  const int facilities = 2 + static_cast<int>(rng.below(3));  // 2..4
  std::vector<FacilityConfig> configs;
  int total_locations = 0;
  for (int i = 0; i < facilities; ++i) {
    FacilityConfig cfg;
    cfg.name = "F" + std::to_string(i);
    cfg.num_locations = 5 + static_cast<int>(rng.below(30));
    cfg.units_per_location = 1.0 + static_cast<double>(rng.below(4));
    total_locations += cfg.num_locations;
    configs.push_back(std::move(cfg));
  }
  const bool overlapping = rng.below(2) == 1;
  LocationSpace space =
      overlapping
          ? LocationSpace::overlapping(
                configs,
                total_locations - static_cast<int>(rng.below(
                                      static_cast<std::uint64_t>(
                                          total_locations / 3 + 1))),
                seed ^ 0x515ULL)
          : LocationSpace::disjoint(configs);

  DemandProfile demand = DemandProfile::uniform(
      1.0 + static_cast<double>(rng.below(20)),
      static_cast<double>(rng.below(static_cast<std::uint64_t>(
          total_locations))),
      1.0);
  return {std::move(space), std::move(demand)};
}

class RandomFederation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFederation, ValueIsMonotoneInCoalition) {
  const Scenario sc = random_scenario(GetParam());
  const int n = sc.space.num_facilities();
  for (const auto& s : game::all_coalitions(n)) {
    const double base = coalition_value(sc.space, sc.demand, s);
    for (int i = 0; i < n; ++i) {
      if (s.contains(i)) continue;
      const double grown = coalition_value(sc.space, sc.demand, s.with(i));
      EXPECT_GE(grown + 1e-6, base)
          << "seed " << GetParam() << " S=" << s.to_string() << " +" << i;
    }
  }
}

TEST_P(RandomFederation, EmptyCoalitionWorthZero) {
  const Scenario sc = random_scenario(GetParam());
  EXPECT_DOUBLE_EQ(coalition_value(sc.space, sc.demand, game::Coalition()),
                   0.0);
}

TEST_P(RandomFederation, ShapleySharesFormAValidDistribution) {
  const Scenario sc = random_scenario(GetParam());
  Federation fed(sc.space, sc.demand);
  const auto shares = game::shapley_shares(fed.build_game());
  double total = 0.0;
  for (const double s : shares) {
    EXPECT_GE(s, -1e-9) << "seed " << GetParam();  // monotone game
    total += s;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(RandomFederation, ConsumptionNeverExceedsAvailability) {
  const Scenario sc = random_scenario(GetParam());
  Federation fed(sc.space, sc.demand);
  const auto consumed = fed.consumption_weights();
  const auto available = fed.availability_weights();
  ASSERT_EQ(consumed.size(), available.size());
  for (std::size_t i = 0; i < consumed.size(); ++i) {
    EXPECT_LE(consumed[i], available[i] + 1e-6)
        << "seed " << GetParam() << " facility " << i;
    EXPECT_GE(consumed[i], -1e-9);
  }
}

TEST_P(RandomFederation, PooledCapacityEqualsSumOfContributions) {
  // Capacities add under overlap (Fig. 1): total pooled units equal the
  // sum of each facility's L_i * R_i * T_i regardless of layout.
  const Scenario sc = random_scenario(GetParam());
  const auto pool =
      sc.space.pool_for(game::Coalition::grand(sc.space.num_facilities()));
  double contributed = 0.0;
  for (const auto& f : sc.space.facilities()) {
    contributed += f.availability_weight();
  }
  EXPECT_NEAR(pool.total_capacity(), contributed, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFederation,
                         ::testing::Range<std::uint64_t>(0, 25));

// --- the monotone closure against a recursive reference -----------------

// V(S) = max(raw(S), V(S \ {i}) for i ascending), recursing through a
// memo: the max sequence a per-coalition closure takes.
double recursive_closed_value(const Federation& fed, game::Coalition s,
                              std::unordered_map<std::uint64_t, double>& memo) {
  if (const auto it = memo.find(s.bits()); it != memo.end()) {
    return it->second;
  }
  double best = coalition_value(fed.space(), fed.demand(), s);
  for (const int i : s.members()) {
    best = std::max(best, recursive_closed_value(fed, s.without(i), memo));
  }
  memo.emplace(s.bits(), best);
  return best;
}

// Checks build_game() and value() bit for bit against the recursion and
// returns how many masks the closure raised above their raw value.
int expect_closure_matches_recursion(const Federation& fed,
                                     const std::string& label) {
  const game::TabularGame tab = fed.build_game();
  std::unordered_map<std::uint64_t, double> memo;
  int raised = 0;
  for (std::uint64_t mask = 0; mask < tab.values().size(); ++mask) {
    const auto s = game::Coalition::from_bits(mask);
    const auto expected =
        std::bit_cast<std::uint64_t>(recursive_closed_value(fed, s, memo));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tab.values()[mask]), expected)
        << label << " table, mask " << mask;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fed.value(s)), expected)
        << label << " value(), mask " << mask;
    if (tab.values()[mask] != fed.raw_value(s)) ++raised;
  }
  return raised;
}

Federation federation_from_repo_config(const std::string& name) {
  std::ifstream in(std::string(FEDSHARE_SOURCE_DIR) + "/configs/" + name +
                   ".ini");
  EXPECT_TRUE(in) << "missing configs/" << name << ".ini";
  return cli::federation_from_config(io::Config::parse(in));
}

TEST(MonotoneClosure, PlanetlabTableMatchesRecursion) {
  // The PlanetLab config is where the greedy allocator dips.
  EXPECT_GT(expect_closure_matches_recursion(
                federation_from_repo_config("planetlab"), "planetlab"),
            0);
}

TEST(MonotoneClosure, Typed8TableMatchesRecursion) {
  (void)expect_closure_matches_recursion(
      federation_from_repo_config("typed8"), "typed8");
}

TEST(MonotoneClosure, RandomSpacesMatchRecursion) {
  sim::Xoshiro256 rng(0xfed5ULL);
  int raised = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(7));  // 2..8
    std::vector<FacilityConfig> configs;
    int total_locations = 0;
    int widest = 0;
    for (int i = 0; i < n; ++i) {
      FacilityConfig cfg;
      cfg.name = "F" + std::to_string(i);
      cfg.num_locations = 10 + static_cast<int>(rng.below(300));
      cfg.units_per_location = 1.0 + static_cast<double>(rng.below(4));
      total_locations += cfg.num_locations;
      widest = std::max(widest, cfg.num_locations);
      configs.push_back(std::move(cfg));
    }
    LocationSpace space =
        rng.below(2) == 1
            ? LocationSpace::overlapping(
                  configs, std::max(widest, total_locations * 3 / 4),
                  0x5eedULL + static_cast<std::uint64_t>(trial))
            : LocationSpace::disjoint(configs);
    // Several classes with different thresholds and widths: the mix
    // that misleads the greedy allocator into dips.
    DemandProfile demand;
    const int classes = 1 + static_cast<int>(rng.below(3));
    for (int c = 0; c < classes; ++c) {
      RequestClass rc;
      rc.count = 1.0 + static_cast<double>(rng.below(30));
      rc.min_locations = 10.0 + static_cast<double>(rng.below(
                                    static_cast<std::uint64_t>(
                                        total_locations / 2 + 1)));
      rc.units_per_location = 1.0 + static_cast<double>(rng.below(4));
      demand.classes.push_back(rc);
    }
    raised += expect_closure_matches_recursion(
        Federation(std::move(space), std::move(demand)),
        "trial " + std::to_string(trial));
  }
  EXPECT_GT(raised, 0) << "no random space exercised the closure";
}

}  // namespace
}  // namespace fedshare::model
