// Tests for the coalition-structure engine (src/structure): the
// anchored subset-lattice DP vs brute-force Bell(n) enumeration
// (bitwise agreement — same canonical welfare fold), the typed CSG on
// the symmetry quotient, budget degradation at exact unit boundaries,
// the hedonic merge/split engine and its block payoffs, the stability
// analyzer, and the CoalitionStructure validator's
// line-precise error messages.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/core_solution.hpp"
#include "core/game.hpp"
#include "core/owen.hpp"
#include "core/symmetry.hpp"
#include "exec/pool.hpp"
#include "model/federation.hpp"
#include "runtime/budget.hpp"
#include "structure/csg.hpp"
#include "structure/hedonic.hpp"
#include "structure/stability.hpp"
#include "structure/typed_csg.hpp"
#include "game_reference.hpp"

namespace fedshare::structure {
namespace {

using game::reference::coalition_of;

// Random nonnegative game with enough spread that the optimal structure
// is sometimes the grand coalition, sometimes a genuine partition.
game::TabularGame random_game(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> values(std::size_t{1} << n, 0.0);
  for (std::size_t mask = 1; mask < values.size(); ++mask) {
    const int size = __builtin_popcountll(mask);
    values[mask] = unit(rng) * std::pow(static_cast<double>(size), 1.2);
  }
  return game::TabularGame(n, std::move(values));
}

void expect_bitwise_equal(const StructureResult& a, const StructureResult& b) {
  EXPECT_EQ(a.welfare, b.welfare);  // bitwise: same canonical fold
  ASSERT_EQ(a.structure.unions.size(), b.structure.unions.size());
  for (std::size_t k = 0; k < a.structure.unions.size(); ++k) {
    EXPECT_EQ(a.structure.unions[k], b.structure.unions[k]);
  }
}

// ---------------------------------------------------------------- DP --

TEST(StructureDpTest, MatchesBruteForceBitwiseOnRandomGames) {
  for (int n = 1; n <= 9; ++n) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto g = random_game(n, 0xC0FFEE + 97 * seed + n);
      const auto dp = optimal_structure(g);
      const auto brute = brute_force_structure(g);
      ASSERT_TRUE(dp.complete);
      ASSERT_TRUE(brute.complete);
      expect_bitwise_equal(dp, brute);
    }
  }
}

TEST(StructureDpTest, MatchesBruteForceAtTwelvePlayers) {
  const auto g = random_game(12, 0xB16);
  const auto dp = optimal_structure(g);
  const auto brute = brute_force_structure(g);
  expect_bitwise_equal(dp, brute);
  // Bell(12) partitions vs (3^12 + 1)/2 - 2^12 + 2^12 - 1 DP candidates.
  EXPECT_EQ(brute.splits_considered, 4213597u);
  EXPECT_EQ(dp.splits_considered, 265720u);
}

TEST(StructureDpTest, WelfareFoldMatchesDpBitwise) {
  const auto g = random_game(8, 0xF01D);
  const auto dp = optimal_structure(g);
  EXPECT_EQ(structure_welfare(g, dp.structure), dp.welfare);
}

TEST(StructureDpTest, DominatesGrandAndSingletons) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto g = random_game(7, 0x5EED + seed);
    const auto dp = optimal_structure(g);
    EXPECT_GE(dp.welfare, g.grand_value());
    double singles = 0.0;
    for (int i = 6; i >= 0; --i) singles = g.value(game::Coalition::single(i)) + singles;
    EXPECT_GE(dp.welfare, singles);
  }
}

TEST(StructureDpTest, SubadditiveGameStaysApartSuperadditiveMerges) {
  const game::FunctionGame sub(4, [](game::Coalition s) {
    return std::sqrt(static_cast<double>(s.size())) * 4.0;
  });
  const auto apart = optimal_structure(sub);
  EXPECT_EQ(apart.structure.unions.size(), 4u);
  const game::FunctionGame super(4, [](game::Coalition s) {
    const double k = static_cast<double>(s.size());
    return k * k;
  });
  const auto merged = optimal_structure(super);
  ASSERT_EQ(merged.structure.unions.size(), 1u);
  EXPECT_EQ(merged.structure.unions[0], game::Coalition::grand(4));
}

TEST(StructureDpTest, SinglePlayerGame) {
  const game::FunctionGame g(1, [](game::Coalition s) {
    return s.empty() ? 0.0 : 7.0;
  });
  const auto dp = optimal_structure(g);
  ASSERT_EQ(dp.structure.unions.size(), 1u);
  EXPECT_EQ(dp.welfare, 7.0);
}

TEST(StructureDpTest, RejectsOutOfRangeSizes) {
  const game::FunctionGame big(19, [](game::Coalition s) {
    return static_cast<double>(s.size());
  });
  EXPECT_THROW((void)optimal_structure(big), std::invalid_argument);
  const game::FunctionGame wide(13, [](game::Coalition s) {
    return static_cast<double>(s.size());
  });
  EXPECT_THROW((void)brute_force_structure(wide), std::invalid_argument);
}

// ---------------------------------------------------------- parallel --

TEST(StructureParallelTest, ThreadCountDoesNotChangeBits) {
  const auto g = random_game(11, 0xAB1E);
  exec::set_threads(1);
  const auto serial = optimal_structure(g);
  exec::set_threads(4);
  const auto parallel = optimal_structure(g);
  exec::set_threads(1);
  expect_bitwise_equal(serial, parallel);
  EXPECT_EQ(serial.splits_considered, parallel.splits_considered);
}

TEST(StructureParallelTest, DegradedResultIsThreadCountInvariant) {
  const auto g = random_game(8, 0xDE6);
  exec::set_threads(1);
  const auto a =
      optimal_structure(g, runtime::ComputeBudget().cap_nodes(40));
  exec::set_threads(4);
  const auto b =
      optimal_structure(g, runtime::ComputeBudget().cap_nodes(40));
  exec::set_threads(1);
  EXPECT_EQ(a.complete, b.complete);
  expect_bitwise_equal(a, b);
}

// ------------------------------------------------------------- typed --

// Symmetric base game: the value depends only on how many members of
// each type a coalition holds.
game::TabularGame typed_game(const std::vector<int>& type_of,
                             std::uint64_t seed) {
  const int n = static_cast<int>(type_of.size());
  int num_types = 0;
  for (const int t : type_of) num_types = std::max(num_types, t + 1);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // One random weight per type plus a concave mix so partitioning can win.
  std::vector<double> weight(static_cast<std::size_t>(num_types));
  for (double& w : weight) w = 1.0 + unit(rng);
  std::vector<double> values(std::size_t{1} << n, 0.0);
  for (std::size_t mask = 1; mask < values.size(); ++mask) {
    std::vector<int> count(static_cast<std::size_t>(num_types), 0);
    for (int p = 0; p < n; ++p) {
      if (mask & (std::size_t{1} << p)) {
        ++count[static_cast<std::size_t>(type_of[static_cast<std::size_t>(p)])];
      }
    }
    double linear = 0.0;
    int total = 0;
    for (int t = 0; t < num_types; ++t) {
      linear += weight[static_cast<std::size_t>(t)] * count[static_cast<std::size_t>(t)];
      total += count[static_cast<std::size_t>(t)];
    }
    values[mask] = linear * std::pow(static_cast<double>(total), 0.7);
  }
  return game::TabularGame(n, std::move(values));
}

TEST(StructureTypedTest, QuotientWelfareMatchesFullLattice) {
  const std::vector<std::vector<int>> typings = {
      {0, 0, 0, 1, 1, 2}, {0, 0, 1, 1, 2, 2}, {0, 0, 0, 0, 1, 1, 1, 2}};
  std::uint64_t seed = 0x7EA;
  for (const auto& type_of : typings) {
    const auto base = typed_game(type_of, seed++);
    const auto partition = game::PlayerPartition::from_type_of(type_of);
    const game::QuotientGame quotient(base, partition);
    const auto typed = optimal_structure_typed(quotient);
    const auto full = optimal_structure(base);
    ASSERT_TRUE(typed.complete);
    EXPECT_NEAR(typed.welfare, full.welfare, 1e-9);
    // The expanded structure is a valid partition whose welfare under
    // the base game reproduces the typed optimum.
    EXPECT_NEAR(structure_welfare(base, typed.structure), typed.welfare,
                1e-9);
    ASSERT_EQ(typed.block_counts.size(), typed.structure.unions.size());
  }
}

TEST(StructureTypedTest, OrbitCountIsProductOfMultiplicitiesPlusOne) {
  const std::vector<int> type_of = {0, 0, 0, 1, 1, 2};
  const auto base = typed_game(type_of, 0x0B17);
  const game::QuotientGame quotient(
      base, game::PlayerPartition::from_type_of(type_of));
  const auto typed = optimal_structure_typed(quotient);
  EXPECT_EQ(typed.orbits, 24u);  // (3+1)(2+1)(1+1)
}

TEST(StructureTypedTest, DegradesUnderOrbitBudget) {
  const std::vector<int> type_of = {0, 0, 0, 1, 1, 2};
  const auto base = typed_game(type_of, 0xDEB);
  const game::QuotientGame quotient(
      base, game::PlayerPartition::from_type_of(type_of));
  const auto degraded = optimal_structure_typed(
      quotient, runtime::ComputeBudget().cap_nodes(2));
  EXPECT_FALSE(degraded.complete);
  EXPECT_EQ(degraded.stop, runtime::StopReason::kNodeCap);
  // Degraded incumbent is still a valid partition of the base game.
  degraded.structure.validate(base.num_players());
}

// ------------------------------------------------------------ budget --

// FunctionGame charging: the incumbent phase materialises 5 singletons
// + the grand coalition (6 units), then tabulation materialises all
// 2^5 = 32 masks afresh (a FunctionGame carries no cache), so the DP
// completes at exactly 38 units.
TEST(StructureBudgetTest, TripsAtExactUnitBoundary) {
  const auto make = [] {
    return game::FunctionGame(5, [](game::Coalition s) {
      const double k = static_cast<double>(s.size());
      return k * k;
    });
  };
  {
    const auto g = make();
    const runtime::ComputeBudget budget = runtime::ComputeBudget().cap_nodes(38);
    const auto full = optimal_structure(g, budget);
    EXPECT_TRUE(full.complete);
    EXPECT_EQ(full.stop, runtime::StopReason::kNone);
    EXPECT_EQ(full.coalitions_evaluated, 38u);
  }
  {
    const auto g = make();
    const runtime::ComputeBudget budget = runtime::ComputeBudget().cap_nodes(37);
    const auto tripped = optimal_structure(g, budget);
    EXPECT_FALSE(tripped.complete);
    EXPECT_EQ(tripped.stop, runtime::StopReason::kNodeCap);
    // Superadditive: the degraded incumbent is the grand coalition.
    ASSERT_EQ(tripped.structure.unions.size(), 1u);
    EXPECT_EQ(tripped.welfare, 25.0);
  }
}

TEST(StructureBudgetTest, TabularGamesAreFree) {
  const auto g = random_game(8, 0xF4EE);
  const runtime::ComputeBudget budget = runtime::ComputeBudget().cap_nodes(1);
  const auto result = optimal_structure(g, budget);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.coalitions_evaluated, 0u);
  expect_bitwise_equal(result, brute_force_structure(g));
}

TEST(StructureBudgetTest, CancellationDegradesToIncumbent) {
  auto token = runtime::CancellationToken::create();
  token.cancel();
  const game::FunctionGame g(6, [](game::Coalition s) {
    return static_cast<double>(s.size());
  });
  const auto result = optimal_structure(
      g, runtime::ComputeBudget().on_token(token));
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.stop, runtime::StopReason::kCancelled);
  result.structure.validate(6);
}

// ----------------------------------------------------------- hedonic --

double glove_value(game::Coalition s) {
  const int left = s.contains(0) ? 1 : 0;
  const int right = (s.contains(1) ? 1 : 0) + (s.contains(2) ? 1 : 0);
  return std::min(left, right);
}

TEST(PartitionPayoffs, BlocksEarnTheirValueSplitByShapley) {
  const game::FunctionGame g(3, glove_value);
  game::CoalitionStructure partition;
  partition.unions = {coalition_of({0, 1}),
                      game::Coalition::single(2)};
  const auto payoffs = partition_payoffs(g, partition);
  // {0,1} is worth 1: split (1/2, 1/2) by within-block Shapley; {2}
  // earns nothing alone.
  EXPECT_NEAR(payoffs[0], 0.5, 1e-12);
  EXPECT_NEAR(payoffs[1], 0.5, 1e-12);
  EXPECT_NEAR(payoffs[2], 0.0, 1e-12);
}

TEST(PartitionPayoffs, ValidatesPartition) {
  const game::FunctionGame g(3, glove_value);
  game::CoalitionStructure bad;
  bad.unions = {coalition_of({0, 1})};
  EXPECT_THROW((void)partition_payoffs(g, bad), std::invalid_argument);
}

TEST(StructureHedonicTest, EngineHasNoPlayerCap) {
  const game::FunctionGame g(11, [](game::Coalition s) {
    const double k = static_cast<double>(s.size());
    return k * k;
  });
  const auto result = hedonic_merge_split(g);
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.partition.unions.size(), 1u);
  EXPECT_EQ(result.partition.unions[0], game::Coalition::grand(11));
  // Nor a cap at table sizes: at n = 30 (no 2^n table fits) an additive
  // game gives no block a strict gain, so singletons are stable.
  const game::FunctionGame additive(30, [](game::Coalition s) {
    return static_cast<double>(s.size());
  });
  const auto wide = hedonic_merge_split(additive);
  EXPECT_TRUE(wide.converged);
  EXPECT_EQ(wide.partition.unions.size(), 30u);
}

TEST(StructureHedonicTest, ConvergedResultIsMergeSplitStable) {
  const game::FunctionGame g(3, glove_value);
  const auto result = hedonic_merge_split(g);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(is_merge_split_stable(g, result.partition));
}

TEST(StructureHedonicTest, StartOverloadSplitsInefficientGrand) {
  const game::FunctionGame g(3, [](game::Coalition s) {
    return std::sqrt(static_cast<double>(s.size())) * 4.0;
  });
  game::CoalitionStructure grand;
  grand.unions = {game::Coalition::grand(3)};
  const auto result = hedonic_merge_split(g, std::move(grand));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.partition.unions.size(), 3u);
}

TEST(StructureHedonicTest, OperationCapReportsNonConvergence) {
  const game::FunctionGame g(4, [](game::Coalition s) {
    const double k = static_cast<double>(s.size());
    return k * k;
  });
  HedonicOptions opts;
  opts.max_operations = 1;
  const auto result = hedonic_merge_split(g, opts);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 1);
}

// Merge-and-split dynamics on small games with a known outcome.

TEST(MergeSplit, GloveGameFormsAValueCreatingCoalition) {
  const game::FunctionGame g(3, glove_value);
  const auto result = hedonic_merge_split(g);
  EXPECT_TRUE(result.converged);
  // Total payoff equals the total value generated; in the glove game a
  // matched pair is formed (value 1 > the zero of singletons).
  const double total = std::accumulate(result.payoffs.begin(),
                                       result.payoffs.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(result.iterations, 0);
}

TEST(MergeSplit, NegativeSynergyStaysApart) {
  // Strictly subadditive game: any merge strictly hurts.
  const game::FunctionGame g(3, [](game::Coalition s) {
    return std::sqrt(static_cast<double>(s.size())) * 4.0;
  });
  const auto result = hedonic_merge_split(g);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.partition.unions.size(), 3u);
  EXPECT_EQ(result.iterations, 0);
  for (const double p : result.payoffs) EXPECT_NEAR(p, 4.0, 1e-9);
}

TEST(MergeSplit, SuperadditiveGameReachesGrandCoalition) {
  const game::FunctionGame g(4, [](game::Coalition s) {
    const double k = s.size();
    return k * k;
  });
  const auto result = hedonic_merge_split(g);
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.partition.unions.size(), 1u);
  EXPECT_EQ(result.partition.unions[0], game::Coalition::grand(4));
  for (const double p : result.payoffs) EXPECT_NEAR(p, 4.0, 1e-9);
}

TEST(MergeSplit, SplitsAnInefficientGrandCoalition) {
  // Start from the grand coalition of a subadditive game: it must split
  // into singletons, each earning its stand-alone value.
  const game::FunctionGame g(3, [](game::Coalition s) {
    return std::sqrt(static_cast<double>(s.size())) * 4.0;
  });
  game::CoalitionStructure grand;
  grand.unions = {game::Coalition::grand(3)};
  const auto result = hedonic_merge_split(g, std::move(grand));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.partition.unions.size(), 3u);
  EXPECT_GT(result.iterations, 0);
  for (const double p : result.payoffs) EXPECT_NEAR(p, 4.0, 1e-9);
}

TEST(MergeSplit, DeterministicAcrossRuns) {
  const game::FunctionGame g(4, [](game::Coalition s) {
    double v = s.size() * 2.0;
    if (s.contains(0) && s.contains(3)) v += 3.0;
    return s.empty() ? 0.0 : v;
  });
  const auto a = hedonic_merge_split(g);
  const auto b = hedonic_merge_split(g);
  ASSERT_EQ(a.partition.unions.size(), b.partition.unions.size());
  for (std::size_t k = 0; k < a.partition.unions.size(); ++k) {
    EXPECT_EQ(a.partition.unions[k], b.partition.unions[k]);
  }
  EXPECT_EQ(a.payoffs, b.payoffs);  // identical doubles
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(MergeSplit, StabilityCheckAgreesWithDynamics) {
  const game::FunctionGame g(3, glove_value);
  const auto result = hedonic_merge_split(g);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(is_merge_split_stable(g, result.partition));
  game::CoalitionStructure singles;
  for (int i = 0; i < 3; ++i) {
    singles.unions.push_back(game::Coalition::single(i));
  }
  EXPECT_FALSE(is_merge_split_stable(g, singles));
}

TEST(MergeSplit, FederationGrandCoalitionWhenDiversityGates) {
  // Paper setting, l = 1250: only the grand coalition serves the
  // customer, so the dynamics must assemble everyone.
  std::vector<model::FacilityConfig> configs{
      {"F1", 100, 1.0, 1.0}, {"F2", 400, 1.0, 1.0}, {"F3", 800, 1.0, 1.0}};
  model::Federation fed(model::LocationSpace::disjoint(configs),
                        model::DemandProfile::single_experiment(1250.0));
  const auto result = hedonic_merge_split(fed.build_game());
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.partition.unions.size(), 1u);
  for (const double p : result.payoffs) {
    EXPECT_NEAR(p, 1300.0 / 3.0, 1e-6);  // equal thirds (Fig. 4 tail)
  }
}

// --------------------------------------------------------- stability --

TEST(StructureStabilityTest, GrandBlockExcessMatchesCoreViolation) {
  // Three-player majority game: empty core, Shapley = equal thirds, any
  // pair can defect for 1 - 2/3 = 1/3.
  const game::FunctionGame g(3, [](game::Coalition s) {
    return s.size() >= 2 ? 1.0 : 0.0;
  });
  game::CoalitionStructure grand;
  grand.unions = {game::Coalition::grand(3)};
  const auto report = analyze_stability(g, grand);
  EXPECT_NEAR(report.max_excess, 1.0 / 3.0, 1e-12);
  // For a single-block structure the within-block scan is exactly the
  // core's coalitional-rationality sweep.
  EXPECT_NEAR(report.max_excess,
              game::max_core_violation(g, report.payoffs), 1e-12);
  EXPECT_FALSE(report.defection_proof);
  EXPECT_EQ(report.worst_deviation.size(), 2);
  // ... yet no Pareto-improving split exists (the loser vetoes), so the
  // two stability notions genuinely differ.
  EXPECT_TRUE(report.merge_split_stable);
}

TEST(StructureStabilityTest, AllSingletonsHaveZeroExcess) {
  const game::FunctionGame g(3, glove_value);
  game::CoalitionStructure singles;
  for (int i = 0; i < 3; ++i) {
    singles.unions.push_back(game::Coalition::single(i));
  }
  const auto report = analyze_stability(g, singles);
  EXPECT_EQ(report.max_excess, 0.0);
  EXPECT_TRUE(report.worst_deviation.empty());
  EXPECT_TRUE(report.defection_proof);
  EXPECT_FALSE(report.merge_split_stable);  // the glove pair wants to merge
}

TEST(StructureStabilityTest, DeviationsRespectBlockBoundaries) {
  // Cross-block coalition {0,2} is worth a fortune, but defection-
  // proofness only audits deviations inside a block.
  const game::FunctionGame g(4, [](game::Coalition s) {
    if (s.contains(0) && s.contains(2)) return 100.0;
    return static_cast<double>(s.size());
  });
  game::CoalitionStructure partition;
  partition.unions = {coalition_of({0, 1}), coalition_of({2, 3})};
  const auto report = analyze_stability(g, partition);
  EXPECT_TRUE(report.defection_proof);
  EXPECT_LE(report.max_excess, 1e-9);
  // The merge raising total value is still Pareto-vetoed: the merged
  // block's Shapley pays players 1 and 3 only 2/3 each, below their
  // current 1.
  EXPECT_TRUE(report.merge_split_stable);
}

// --------------------------------------------------------- validator --

std::string validation_message(const game::CoalitionStructure& partition,
                               int num_players) {
  try {
    partition.validate(num_players);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CoalitionStructureValidatorTest, PinpointsEveryDefect) {
  game::CoalitionStructure empty;
  EXPECT_NE(validation_message(empty, 3).find("no unions"), std::string::npos);

  game::CoalitionStructure hole;
  hole.unions = {coalition_of({0, 1}), game::Coalition(),
                 game::Coalition::single(2)};
  EXPECT_NE(validation_message(hole, 3).find("union #1 is empty"),
            std::string::npos);

  game::CoalitionStructure outside;
  outside.unions = {coalition_of({0, 1, 2}), coalition_of({3, 5})};
  const std::string out_msg = validation_message(outside, 5);
  EXPECT_NE(out_msg.find("union #1"), std::string::npos);
  EXPECT_NE(out_msg.find("contains player 5 >= num_players (5)"),
            std::string::npos);

  game::CoalitionStructure overlapping;
  overlapping.unions = {coalition_of({0, 1}),
                        coalition_of({1, 2})};
  const std::string overlap_msg = validation_message(overlapping, 3);
  EXPECT_NE(overlap_msg.find("union #1 = {1,2}"), std::string::npos);
  EXPECT_NE(overlap_msg.find("overlaps an earlier union on {1}"),
            std::string::npos);

  game::CoalitionStructure partial;
  partial.unions = {game::Coalition::single(0)};
  const std::string missing_msg = validation_message(partial, 3);
  EXPECT_NE(missing_msg.find("players {1,2} are covered by no union"),
            std::string::npos);

  game::CoalitionStructure fine;
  fine.unions = {game::Coalition::single(0)};
  EXPECT_NE(validation_message(fine, 0).find("outside [1,"),
            std::string::npos);
}

TEST(CoalitionStructureValidatorTest, EntryPointsReject) {
  const game::FunctionGame g(3, glove_value);
  game::CoalitionStructure bad;
  bad.unions = {coalition_of({0, 1})};
  EXPECT_THROW((void)structure_welfare(g, bad), std::invalid_argument);
  EXPECT_THROW((void)partition_payoffs(g, bad), std::invalid_argument);
  EXPECT_THROW((void)is_merge_split_stable(g, bad), std::invalid_argument);
  EXPECT_THROW((void)analyze_stability(g, bad), std::invalid_argument);
  EXPECT_THROW((void)hedonic_merge_split(g, bad), std::invalid_argument);
}

// -------------------------------------------------------------- mode --

TEST(StructureModeTest, ParsingRoundTrips) {
  const std::pair<const char*, StructureMode> names[] = {
      {"off", StructureMode::kOff},
      {"optimal", StructureMode::kOptimal},
      {"hedonic", StructureMode::kHedonic}};
  for (const auto& [name, mode] : names) {
    const auto parsed = structure_mode_from_string(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(structure_mode_from_string("grand").has_value());
}

}  // namespace
}  // namespace fedshare::structure
