// Resilience subsystem: compute budgets, the fallback cascades (the
// Shapley cascade and the scheme comparison under a budget), and the
// outage fault-injection model.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "core/game.hpp"
#include "core/shapley.hpp"
#include "core/sharing.hpp"
#include "core/symmetry.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "model/demand.hpp"
#include "model/federation.hpp"
#include "model/location_space.hpp"
#include "runtime/budget.hpp"
#include "runtime/outage.hpp"

namespace fedshare::runtime {
namespace {

// --- ComputeBudget -------------------------------------------------------

TEST(ComputeBudget, UnlimitedNeverTrips) {
  const ComputeBudget b;
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(b.charge());
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.stop_reason(), StopReason::kNone);
}

TEST(ComputeBudget, NodeCapTripsAtTheCap) {
  const ComputeBudget b = ComputeBudget().cap_nodes(10);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(b.charge()) << "unit " << i;
  EXPECT_FALSE(b.exhausted());
  EXPECT_FALSE(b.charge());
  EXPECT_EQ(b.stop_reason(), StopReason::kNodeCap);
  EXPECT_TRUE(b.exhausted());
}

TEST(ComputeBudget, TrippedStaysTripped) {
  const ComputeBudget b = ComputeBudget().cap_nodes(1);
  ASSERT_TRUE(b.charge());
  ASSERT_FALSE(b.charge());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(b.charge());
  EXPECT_EQ(b.stop_reason(), StopReason::kNodeCap);
}

TEST(ComputeBudget, ExpiredDeadlineTrips) {
  const ComputeBudget b = ComputeBudget::with_deadline_ms(0.0);
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.stop_reason(), StopReason::kDeadline);
}

TEST(ComputeBudget, FutureDeadlineHolds) {
  const ComputeBudget b = ComputeBudget::with_deadline_ms(60000.0);
  EXPECT_FALSE(b.exhausted());
  ASSERT_TRUE(b.charge(100));
}

TEST(ComputeBudget, CancellationTokenTripsTheBudget) {
  CancellationToken token = CancellationToken::create();
  const ComputeBudget b = ComputeBudget().on_token(token);
  ASSERT_TRUE(b.charge());
  token.cancel();
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.stop_reason(), StopReason::kCancelled);
  EXPECT_FALSE(b.charge());
}

TEST(ComputeBudget, BulkChargesCountAllUnits) {
  const ComputeBudget b = ComputeBudget().cap_nodes(100);
  ASSERT_TRUE(b.charge(60));
  EXPECT_EQ(b.used(), 60u);
  EXPECT_FALSE(b.charge(41));  // 101 > 100
}

TEST(ComputeBudget, StopReasonNames) {
  EXPECT_STREQ(to_string(StopReason::kNone), "none");
  EXPECT_STREQ(to_string(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(to_string(StopReason::kNodeCap), "node-cap");
  EXPECT_STREQ(to_string(StopReason::kCancelled), "cancelled");
}

// --- budget plumbing through the solvers ---------------------------------

TEST(BudgetedSolvers, SimplexReportsBudgetExhausted) {
  // Any nontrivial LP needs at least one pivot; a zero-node budget must
  // surface as kBudgetExhausted, not as an infinite loop or a throw.
  lp::Problem p(2);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 2.0}, lp::Relation::kLessEqual, 4.0);
  p.add_constraint({3.0, 1.0}, lp::Relation::kLessEqual, 6.0);
  const ComputeBudget budget = ComputeBudget().cap_nodes(0);
  lp::SimplexOptions opt;
  opt.budget = &budget;
  EXPECT_EQ(lp::solve(p, opt).status, lp::SolveStatus::kBudgetExhausted);
}

TEST(BudgetedSolvers, ShapleyExactBudgetedMatchesUnbudgeted) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const auto budgeted = game::shapley_exact_budgeted(g, ComputeBudget());
  ASSERT_TRUE(budgeted.has_value());
  // Both run the lattice kernel's ascending-mask accumulation: bitwise.
  EXPECT_EQ(*budgeted, game::shapley_exact(g));
}

TEST(BudgetedSolvers, ShapleyExactBudgetedTripsOnTightBudget) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const ComputeBudget budget = ComputeBudget().cap_nodes(2);
  EXPECT_FALSE(game::shapley_exact_budgeted(g, budget).has_value());
}

TEST(BudgetedSolvers, MonteCarloShapleyReturnsPartialEstimateOnTrip) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  // Budget for ~3 samples' worth of V evaluations (each sample costs
  // n + 1 = 4); the estimator must stop early but keep >= 2 samples.
  const ComputeBudget budget = ComputeBudget().cap_nodes(12);
  const auto mc = game::shapley_monte_carlo(g, 1000, 7, &budget);
  EXPECT_FALSE(mc.complete);
  EXPECT_GE(mc.samples, 2u);
  EXPECT_LT(mc.samples, 1000u);
  for (const double se : mc.standard_error) EXPECT_TRUE(std::isfinite(se));
}

TEST(BudgetedSolvers, AntitheticReturnsAtLeastOnePairOnTrip) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const ComputeBudget budget = ComputeBudget().cap_nodes(0);
  const auto mc = game::shapley_monte_carlo_antithetic(g, 1000, 7, &budget);
  EXPECT_FALSE(mc.complete);
  EXPECT_GE(mc.samples, 2u);
  EXPECT_EQ(mc.samples % 2, 0u);
}

// --- the Shapley cascade -------------------------------------------------

TEST(ResilientShapley, ExactEngineMatchesShapleyExact) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const auto r = game::resilient_shapley(g);
  EXPECT_EQ(r.engine, game::ShapleyEngine::kExact);
  EXPECT_TRUE(r.note.empty());
  EXPECT_TRUE(r.standard_error.empty());
  EXPECT_EQ(r.phi, game::shapley_exact(g));
}

TEST(ResilientShapley, DegradesToMonteCarloWithErrorsOnBudgetTrip) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const ComputeBudget budget = ComputeBudget().cap_nodes(2);
  const auto r = game::resilient_shapley(g, budget);
  EXPECT_EQ(r.engine, game::ShapleyEngine::kMonteCarlo);
  EXPECT_GE(r.samples, 2u);
  ASSERT_EQ(r.phi.size(), 3u);
  ASSERT_EQ(r.standard_error.size(), 3u);
  for (const double se : r.standard_error) EXPECT_TRUE(std::isfinite(se));
  EXPECT_NE(r.note.find("monte-carlo"), std::string::npos) << r.note;
  // Efficiency holds for the estimator: the sampled marginals along any
  // permutation telescope to V(N).
  double sum = 0.0;
  for (const double p : r.phi) sum += p;
  EXPECT_NEAR(sum, g.grand_value(), 1e-9);
}

TEST(ResilientShapley, MonteCarloFallbackIsDeterministicGivenSeed) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const auto a = game::resilient_shapley(g, ComputeBudget().cap_nodes(2));
  const auto b = game::resilient_shapley(g, ComputeBudget().cap_nodes(2));
  ASSERT_EQ(a.samples, b.samples);
  for (std::size_t i = 0; i < a.phi.size(); ++i) {
    EXPECT_EQ(a.phi[i], b.phi[i]);
  }
}

// --- the scheme comparison under a budget --------------------------------

model::Federation small_federation(double availability = 1.0) {
  auto space = model::LocationSpace::disjoint(
      {{"A", 2, 1.0, availability},
       {"B", 3, 1.0, availability},
       {"C", 4, 1.0, availability}});
  return model::Federation(std::move(space),
                           model::DemandProfile::uniform(3, 2));
}

// An unlimited budget attached changes nothing: the same rows, bit for
// bit, as the comparison without one, and every core verdict checked.
TEST(CompareSchemesResilient, MatchesCompareSchemesOnUnlimitedBudget) {
  const model::Federation fed = small_federation();
  const game::TabularGame g = fed.build_game();
  const auto aw = fed.availability_weights();
  const auto cw = fed.consumption_weights();
  const auto nominal = game::compare_schemes(g, aw, cw).outcomes;
  const ComputeBudget budget;
  lp::SimplexOptions options;
  options.budget = &budget;
  const auto rs = game::compare_schemes(g, aw, cw, options);
  EXPECT_TRUE(rs.notes().empty());
  EXPECT_EQ(rs.shapley_engine, game::ShapleyEngine::kExact);
  ASSERT_EQ(rs.outcomes.size(), nominal.size());
  for (std::size_t j = 0; j < nominal.size(); ++j) {
    EXPECT_EQ(rs.outcomes[j].scheme, nominal[j].scheme);
    ASSERT_TRUE(rs.outcomes[j].in_core.has_value());
    EXPECT_EQ(rs.outcomes[j].in_core, nominal[j].in_core);
    EXPECT_EQ(rs.outcomes[j].shares, nominal[j].shares);
    EXPECT_EQ(rs.outcomes[j].payoffs, nominal[j].payoffs);
  }
}

TEST(CompareSchemesResilient, DegradesEverySchemeWithoutATable) {
  const model::Federation fed = small_federation();
  const game::FunctionGame g(
      fed.num_facilities(),
      [&fed](game::Coalition c) { return fed.value(c); });
  const ComputeBudget budget = ComputeBudget().cap_nodes(0);
  lp::SimplexOptions options;
  options.budget = &budget;
  const auto rs = game::compare_schemes(g, fed.availability_weights(),
                                        fed.consumption_weights(), options);
  EXPECT_EQ(rs.shapley_engine, game::ShapleyEngine::kMonteCarlo);
  EXPECT_FALSE(rs.notes().empty());
  // Monte-Carlo Shapley, both proportionals, and equal still answer.
  ASSERT_GE(rs.outcomes.size(), 4u);
  for (const auto& o : rs.outcomes) {
    double sum = 0.0;
    for (const double s : o.shares) sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-9) << to_string(o.scheme);
    EXPECT_NE(o.scheme, game::Scheme::kNucleolus);
    EXPECT_NE(o.scheme, game::Scheme::kBanzhaf);
    // No table, no core verdict: unchecked, never a default "no".
    EXPECT_FALSE(o.in_core.has_value()) << to_string(o.scheme);
    EXPECT_STREQ(game::in_core_label(o), "n/a");
  }
  ASSERT_EQ(rs.skipped.size(), 3u);
  EXPECT_EQ(rs.skipped[0].scheme, "nucleolus");
  EXPECT_EQ(rs.skipped[1].scheme, "banzhaf");
  EXPECT_EQ(rs.skipped[2].scheme, "core membership");
  for (const auto& s : rs.skipped) {
    EXPECT_EQ(s.reason, "coalition table unavailable under node-cap");
    EXPECT_FALSE(s.size_limit);
  }
  EXPECT_TRUE(rs.cut_short());
}

TEST(CompareSchemesResilient, NodeCapTrippingInsideTheNucleolusIsRecorded) {
  const model::Federation fed = small_federation();
  const game::TabularGame g = fed.build_game();
  // Units exact Shapley charges on the table (n * 2^(n-1), measured
  // rather than assumed); one more admits a single nucleolus pivot,
  // short of the chain's full count.
  const ComputeBudget shapley_budget;
  ASSERT_TRUE(game::shapley_exact_budgeted(g, shapley_budget).has_value());
  const auto run = [&g](const ComputeBudget& budget) {
    lp::SimplexOptions options;
    options.budget = &budget;
    return game::compare_schemes(g, {}, {}, options);
  };
  const ComputeBudget full;
  (void)run(full);
  ASSERT_GT(full.used(), shapley_budget.used() + 1);

  const ComputeBudget budget =
      ComputeBudget().cap_nodes(shapley_budget.used() + 1);
  const auto rs = run(budget);
  EXPECT_EQ(rs.shapley_engine, game::ShapleyEngine::kExact);
  for (const auto& o : rs.outcomes) {
    EXPECT_NE(o.scheme, game::Scheme::kNucleolus);
  }
  ASSERT_EQ(rs.skipped.size(), 1u);
  EXPECT_EQ(rs.skipped[0].scheme, "nucleolus");
  EXPECT_EQ(rs.skipped[0].reason, "node-cap");
  EXPECT_FALSE(rs.skipped[0].size_limit);
  EXPECT_TRUE(rs.cut_short());
  ASSERT_EQ(rs.notes().size(), 1u);
  EXPECT_EQ(rs.notes()[0], "nucleolus: skipped (node-cap)");
}

// n = 16: 2^16 - 2 dense rows, and 3 * 2^14 - 2 orbit rows for one pair
// plus 14 singletons. Both formulations are past kMaxExcessRows, and
// each gives a recorded size skip naming its row count, never a throw.
TEST(CompareSchemesResilient, NucleolusPastTheDenseCeilingIsASizeSkip) {
  const game::FunctionGame base(16, [](game::Coalition c) {
    return static_cast<double>(c.size() * c.size());
  });
  const game::TabularGame g = game::tabulate(base);
  std::vector<int> type_of(16);
  for (int i = 0; i < 16; ++i) {
    type_of[static_cast<std::size_t>(i)] = i < 2 ? 0 : i - 1;
  }
  const auto pair = game::PlayerPartition::from_type_of(type_of);
  for (const auto* partition : {static_cast<const game::PlayerPartition*>(
                                    nullptr),
                                &pair}) {
    const auto rs = game::compare_schemes(g, {}, {}, {}, partition);
    ASSERT_EQ(rs.skipped.size(), 1u);
    EXPECT_EQ(rs.skipped[0].scheme, "nucleolus");
    EXPECT_EQ(rs.skipped[0].reason,
              partition == nullptr
                  ? "65534 excess rows exceed kMaxExcessRows = 32768"
                  : "49150 excess rows exceed kMaxExcessRows = 32768");
    EXPECT_TRUE(rs.skipped[0].size_limit);
    EXPECT_FALSE(rs.cut_short());
    for (const auto& o : rs.outcomes) {
      EXPECT_NE(o.scheme, game::Scheme::kNucleolus);
    }
  }
}

// --- the outage model ----------------------------------------------------

TEST(OutageModel, ScenarioIsAPureFunctionOfSeedAndIndex) {
  const model::Federation fed = small_federation(0.6);
  const OutageModel m(42);
  const auto a = m.sample(fed.space(), 3);
  const auto b = m.sample(fed.space(), 3);
  EXPECT_EQ(a.up, b.up);
  // Out-of-order sampling changes nothing.
  (void)m.sample(fed.space(), 0);
  const auto c = m.sample(fed.space(), 3);
  EXPECT_EQ(a.up, c.up);
  // A different seed gives a different stream (on 9 locations x several
  // scenarios a collision would be astronomically unlikely).
  const OutageModel other(43);
  bool any_difference = false;
  for (std::uint64_t k = 0; k < 8 && !any_difference; ++k) {
    any_difference = m.sample(fed.space(), k).up != other.sample(fed.space(), k).up;
  }
  EXPECT_TRUE(any_difference);
}

// One facility's mask, drawn after skipping the locations before it, is
// that facility's row of the whole scenario, on disjoint spaces of
// mixed location counts and availabilities.
TEST(OutageModel, SampleLocationsMatchesTheScenarioRow) {
  std::vector<model::FacilityConfig> configs;
  for (int i = 0; i < 7; ++i) {
    model::FacilityConfig cfg;
    cfg.name = "F" + std::to_string(i);
    cfg.num_locations = 1 + (5 * i) % 9;
    cfg.availability = 1.0 - 0.11 * i;
    configs.push_back(cfg);
  }
  const model::LocationSpace space =
      model::LocationSpace::disjoint(configs);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const OutageModel m(seed);
    for (std::uint64_t k = 0; k < 6; ++k) {
      const OutageScenario whole = m.sample(space, k);
      std::size_t skip = 0;
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto count = static_cast<std::size_t>(configs[i].num_locations);
        EXPECT_EQ(m.sample_locations(k, skip, count, configs[i].availability),
                  whole.up[i])
            << "seed " << seed << " scenario " << k << " facility " << i;
        skip += count;
      }
    }
  }
}

TEST(OutageModel, FullAvailabilityMeansNoOutages) {
  const model::Federation fed = small_federation(1.0);
  const OutageModel m(7);
  for (std::uint64_t k = 0; k < 16; ++k) {
    const auto s = m.sample(fed.space(), k);
    for (const auto& mask : s.up) {
      for (const bool up : mask) EXPECT_TRUE(up);
    }
  }
}

TEST(OutageModel, DegradedSpaceKeepsFullCapacityAtSurvivors) {
  // One facility, T = 0.5, 4 locations of 2 units. In a degraded space
  // survivors carry the full 2 units (availability realised, not
  // discounted twice).
  auto space = model::LocationSpace::disjoint({{"A", 4, 2.0, 0.5}});
  const model::LocationSpace degraded =
      space.with_outages({{true, false, true, false}});
  EXPECT_EQ(degraded.num_facilities(), 1);
  EXPECT_EQ(degraded.locations_of(0).size(), 2u);
  const auto pool = degraded.pool_for(game::Coalition::grand(1));
  ASSERT_EQ(pool.capacity.size(), 2u);
  EXPECT_NEAR(pool.capacity[0], 2.0, 1e-12);
  EXPECT_NEAR(pool.capacity[1], 2.0, 1e-12);
  // The location universe is preserved.
  EXPECT_EQ(degraded.num_locations(), space.num_locations());
}

TEST(OutageModel, WithOutagesValidatesMaskShape) {
  auto space = model::LocationSpace::disjoint({{"A", 2}, {"B", 3}});
  EXPECT_THROW((void)space.with_outages({{true, true}}),
               std::invalid_argument);
  EXPECT_THROW((void)space.with_outages({{true, true}, {true, true}}),
               std::invalid_argument);
}

TEST(OutageStatsTest, SummarizeComputesMomentsAndQuantiles) {
  const OutageStats s = summarize({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_NEAR(s.mean, 3.0, 1e-12);
  EXPECT_NEAR(s.q50, 3.0, 1e-12);
  EXPECT_NEAR(s.min, 1.0, 1e-12);
  EXPECT_NEAR(s.max, 5.0, 1e-12);
  EXPECT_NEAR(s.q05, 1.2, 1e-12);  // linear interpolation at 0.05 * 4
  EXPECT_NEAR(s.q95, 4.8, 1e-12);
}

// --- the outage evaluator ------------------------------------------------

TEST(EvaluateOutages, DeterministicGivenSeed) {
  const model::Federation fed = small_federation(0.7);
  const auto a = evaluate_outages(fed, 6, 99);
  const auto b = evaluate_outages(fed, 6, 99);
  ASSERT_EQ(a.scenarios_evaluated, b.scenarios_evaluated);
  ASSERT_EQ(a.schemes.size(), b.schemes.size());
  for (std::size_t j = 0; j < a.schemes.size(); ++j) {
    EXPECT_EQ(a.schemes[j].core_fraction, b.schemes[j].core_fraction);
    for (std::size_t i = 0; i < a.schemes[j].shares.size(); ++i) {
      EXPECT_EQ(a.schemes[j].shares[i].mean, b.schemes[j].shares[i].mean);
      EXPECT_EQ(a.schemes[j].payoffs[i].q95, b.schemes[j].payoffs[i].q95);
    }
  }
  EXPECT_EQ(a.grand_value.mean, b.grand_value.mean);
}

TEST(EvaluateOutages, FullAvailabilityCollapsesToNominalShares) {
  // The acceptance criterion: with T_i = 1 every sampled scenario is the
  // nominal federation, so outage-expected shares equal nominal shares.
  const model::Federation fed = small_federation(1.0);
  const game::TabularGame g = fed.build_game();
  const auto nominal = game::compare_schemes(g, fed.availability_weights(),
                                             fed.consumption_weights())
                           .outcomes;
  const auto report = evaluate_outages(fed, 5, 123);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.scenarios_evaluated, 5);
  ASSERT_EQ(report.schemes.size(), nominal.size());
  EXPECT_NEAR(report.grand_value.mean, g.grand_value(), 1e-12);
  EXPECT_NEAR(report.grand_value.min, report.grand_value.max, 1e-12);
  for (std::size_t j = 0; j < nominal.size(); ++j) {
    EXPECT_EQ(report.schemes[j].scheme, nominal[j].scheme);
    for (std::size_t i = 0; i < nominal[j].shares.size(); ++i) {
      EXPECT_NEAR(report.schemes[j].shares[i].mean, nominal[j].shares[i],
                  1e-12);
      EXPECT_NEAR(report.schemes[j].shares[i].min,
                  report.schemes[j].shares[i].max, 1e-12);
      EXPECT_NEAR(report.schemes[j].payoffs[i].mean, nominal[j].payoffs[i],
                  1e-12);
    }
    EXPECT_EQ(report.schemes[j].core_fraction,
              nominal[j].in_core.value() ? 1.0 : 0.0);
  }
}

TEST(EvaluateOutages, PartialAvailabilityDegradesTheGrandValue) {
  const model::Federation nominal_fed = small_federation(1.0);
  const model::Federation degraded_fed = small_federation(0.5);
  const double nominal_v = nominal_fed.build_game().grand_value();
  const auto report = evaluate_outages(degraded_fed, 12, 7);
  EXPECT_TRUE(report.complete());
  // Outages can only remove locations, so every realised V(N) is at most
  // the fully-up value; across 12 scenarios at T = 0.5 at least one
  // outage will have occurred.
  EXPECT_LE(report.grand_value.max, nominal_v + 1e-9);
  EXPECT_LT(report.grand_value.min, nominal_v - 1e-9);
}

TEST(EvaluateOutages, RecordsTruncationOnExhaustedBudget) {
  const model::Federation fed = small_federation(0.7);
  const auto report =
      evaluate_outages(fed, 8, 1, ComputeBudget::with_deadline_ms(0.0));
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.scenarios_evaluated, 0);
  EXPECT_TRUE(report.schemes.empty());
}

TEST(EvaluateOutages, RejectsNonPositiveScenarioCounts) {
  const model::Federation fed = small_federation();
  EXPECT_THROW((void)evaluate_outages(fed, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace fedshare::runtime
