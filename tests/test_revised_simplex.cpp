// Tests for the revised simplex engine: dense-solver parity on the
// canonical unit LPs, basis snapshots and warm re-solves, in-place
// patching, appended rows, the dual/crash warm paths, and the budget
// contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/game.hpp"
#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "runtime/budget.hpp"

namespace fedshare::lp {
namespace {

SimplexOptions revised_options() {
  SimplexOptions options;
  options.solver = SolverKind::kRevised;
  return options;
}

TEST(RevisedSimplex, SolverKindStringsRoundTrip) {
  EXPECT_STREQ(to_string(SolverKind::kDense), "dense");
  EXPECT_STREQ(to_string(SolverKind::kRevised), "revised");
  SolverKind kind = SolverKind::kDense;
  EXPECT_TRUE(solver_kind_from_string("revised", kind));
  EXPECT_EQ(kind, SolverKind::kRevised);
  EXPECT_TRUE(solver_kind_from_string("dense", kind));
  EXPECT_EQ(kind, SolverKind::kDense);
  EXPECT_FALSE(solver_kind_from_string("sparse", kind));
}

TEST(RevisedSimplex, SolvesSimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), obj 12.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  const Solution s = solve(p, revised_options());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-8);
  EXPECT_NEAR(s.x[0], 4.0, 1e-8);
  EXPECT_NEAR(s.x[1], 0.0, 1e-8);
}

TEST(RevisedSimplex, SolvesMinimizationWithGreaterEqual) {
  Problem p(2, Objective::kMinimize);
  p.set_objective_coefficient(0, 2.0);
  p.set_objective_coefficient(1, 3.0);
  p.add_constraint({1.0, 1.0}, Relation::kGreaterEqual, 10.0);
  p.add_constraint({1.0, 0.0}, Relation::kGreaterEqual, 2.0);
  const Solution s = solve(p, revised_options());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 20.0, 1e-8);
  EXPECT_NEAR(s.x[0], 10.0, 1e-8);
}

TEST(RevisedSimplex, HandlesEqualityConstraints) {
  Problem p(2);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kEqual, 5.0);
  p.add_constraint({1.0, -1.0}, Relation::kEqual, 1.0);
  const Solution s = solve(p, revised_options());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 3.0, 1e-8);
  EXPECT_NEAR(s.x[1], 2.0, 1e-8);
}

TEST(RevisedSimplex, DetectsInfeasibility) {
  Problem p(1);
  p.add_constraint({1.0}, Relation::kLessEqual, 1.0);
  p.add_constraint({1.0}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(p, revised_options()).status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsInfeasibilityThroughRealRows) {
  // Two-variable rows (no singleton presolve shortcut): x + y <= 1 and
  // x + y >= 3 cannot both hold.
  Problem p(2);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kGreaterEqual, 3.0);
  EXPECT_EQ(solve(p, revised_options()).status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsUnboundedness) {
  Problem p(1, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({-1.0}, Relation::kLessEqual, 1.0);
  EXPECT_EQ(solve(p, revised_options()).status, SolveStatus::kUnbounded);
}

TEST(RevisedSimplex, HandlesFreeVariables) {
  Problem p(1, Objective::kMinimize);
  p.set_free(0);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0}, Relation::kGreaterEqual, -5.0);
  const Solution s = solve(p, revised_options());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], -5.0, 1e-8);
}

TEST(RevisedSimplex, SolvesDegenerateBealeExample) {
  // Beale's cycling example; Bland's rule must terminate it.
  Problem p(4, Objective::kMinimize);
  p.set_objective_coefficient(0, -0.75);
  p.set_objective_coefficient(1, 150.0);
  p.set_objective_coefficient(2, -0.02);
  p.set_objective_coefficient(3, 6.0);
  p.add_constraint({0.25, -60.0, -0.04, 9.0}, Relation::kLessEqual, 0.0);
  p.add_constraint({0.5, -90.0, -0.02, 3.0}, Relation::kLessEqual, 0.0);
  p.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0);
  const Solution dense = solve(p);
  const Solution revised = solve(p, revised_options());
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(revised.objective, dense.objective, 1e-7);
  EXPECT_NEAR(revised.objective, -0.05, 1e-7);
}

TEST(RevisedSimplex, SingletonRowsPresolveIntoBounds) {
  // 3 <= x <= 7 expressed as rows, plus one real row. Only the real row
  // should survive presolve.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 0.0}, Relation::kGreaterEqual, 3.0);
  p.add_constraint({1.0, 0.0}, Relation::kLessEqual, 7.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 9.0);
  RevisedSimplex engine(p);
  EXPECT_EQ(engine.num_structural(), 2u);
  const Solution s = engine.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 9.0, 1e-8);
  // The basis spans the structurals and one slack per surviving row.
  EXPECT_EQ(engine.basis().status.size(), 2u + 1u);
}

TEST(RevisedSimplex, ReportsPivotsAndBasis) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  RevisedSimplex engine(p);
  EXPECT_TRUE(engine.basis().empty());
  const Solution s = engine.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_GT(s.pivots, 0u);
  EXPECT_EQ(engine.pivots(), s.pivots);
  const Basis b = engine.basis();
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.status.size(), engine.num_structural() + 2u);  // + 2 slacks
  EXPECT_EQ(b.num_structural, engine.num_structural());
}

TEST(RevisedSimplex, WarmRestartAfterRhsPatchMatchesDense) {
  // max x + y s.t. x + y <= c1, x + 2y <= c2. Re-solve for shifted
  // capacities from the previous optimal basis; the dual sweep must
  // land on the same optimum as a cold dense solve, in fewer pivots.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 2.0}, Relation::kLessEqual, 6.0);
  RevisedSimplex engine(p);
  const Solution cold = engine.solve();
  ASSERT_TRUE(cold.optimal());
  Basis basis = engine.basis();

  for (int shift = 1; shift <= 4; ++shift) {
    const double c1 = 4.0 + 0.5 * shift;
    const double c2 = 6.0 - 0.25 * shift;
    engine.set_constraint_rhs(0, c1);
    engine.set_constraint_rhs(1, c2);
    const Solution warm = engine.solve_from_basis(basis);
    ASSERT_TRUE(warm.optimal()) << "shift " << shift;
    basis = engine.basis();

    Problem fresh(2, Objective::kMaximize);
    fresh.set_objective_coefficient(0, 1.0);
    fresh.set_objective_coefficient(1, 1.0);
    fresh.add_constraint({1.0, 1.0}, Relation::kLessEqual, c1);
    fresh.add_constraint({1.0, 2.0}, Relation::kLessEqual, c2);
    const Solution dense = solve(fresh);
    ASSERT_TRUE(dense.optimal());
    EXPECT_NEAR(warm.objective, dense.objective, 1e-8) << "shift " << shift;
  }
}

TEST(RevisedSimplex, ApplyPatchEqualsIndividualSetters) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 2.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 5.0);
  p.add_constraint({2.0, 1.0}, Relation::kLessEqual, 8.0);

  RevisedSimplex a(p);
  RevisedSimplex b(p);
  a.set_constraint_rhs(0, 3.0);
  a.set_constraint_rhs(1, 7.0);
  a.set_bounds(1, 0.0, 1.5);
  ProblemPatch patch;
  patch.rhs.push_back({0, 3.0});
  patch.rhs.push_back({1, 7.0});
  patch.bounds.push_back({1, 0.0, 1.5});
  b.apply(patch);

  const Solution sa = a.solve();
  const Solution sb = b.solve();
  ASSERT_TRUE(sa.optimal());
  ASSERT_TRUE(sb.optimal());
  EXPECT_DOUBLE_EQ(sa.objective, sb.objective);
  EXPECT_EQ(sa.pivots, sb.pivots);
}

TEST(RevisedSimplex, ObjectiveChangeWarmResolveMatchesDense) {
  // Same constraint set, family of objectives, each solved on an engine
  // built for it from the previous objective's optimal basis: that
  // basis stays primal feasible, so each re-solve is a phase-2-only run.
  Problem p(3, Objective::kMaximize);
  p.add_constraint({1.0, 1.0, 1.0}, Relation::kLessEqual, 10.0);
  p.add_constraint({1.0, 2.0, 0.0}, Relation::kLessEqual, 12.0);
  p.add_constraint({0.0, 1.0, 3.0}, Relation::kLessEqual, 15.0);
  Basis basis;
  const double costs[4][3] = {
      {1.0, 2.0, 3.0}, {3.0, 1.0, 0.5}, {0.2, 0.4, 5.0}, {2.0, 2.0, 2.0}};
  for (const auto& c : costs) {
    for (std::size_t j = 0; j < 3; ++j) p.set_objective_coefficient(j, c[j]);
    RevisedSimplex engine(p);
    const Solution warm = engine.solve_from_basis(basis);
    ASSERT_TRUE(warm.optimal());
    basis = engine.basis();
    const Solution dense = solve(p);
    ASSERT_TRUE(dense.optimal());
    EXPECT_NEAR(warm.objective, dense.objective, 1e-8);
  }
}

TEST(RevisedSimplex, CrashPathAcceptsForeignBasis) {
  // A basis snapshotted on a 2-row instance, replayed on a 3-row
  // instance with the same structural variables: the crash path keeps
  // the structural statuses and rebuilds the rest.
  Problem small(2, Objective::kMaximize);
  small.set_objective_coefficient(0, 1.0);
  small.set_objective_coefficient(1, 2.0);
  small.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  small.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  RevisedSimplex small_engine(small);
  ASSERT_TRUE(small_engine.solve().optimal());
  const Basis foreign = small_engine.basis();

  Problem big(2, Objective::kMaximize);
  big.set_objective_coefficient(0, 1.0);
  big.set_objective_coefficient(1, 2.0);
  big.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  big.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  big.add_constraint({2.0, 1.0}, Relation::kLessEqual, 7.0);
  RevisedSimplex big_engine(big);
  const Solution warm = big_engine.solve_from_basis(foreign);
  const Solution dense = solve(big);
  ASSERT_TRUE(warm.optimal());
  ASSERT_TRUE(dense.optimal());
  EXPECT_NEAR(warm.objective, dense.objective, 1e-8);
}

TEST(RevisedSimplex, HonorsNodeCapBudget) {
  Problem p(3, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.set_objective_coefficient(2, 1.0);
  p.add_constraint({1.0, 1.0, 1.0}, Relation::kLessEqual, 10.0);
  p.add_constraint({1.0, 2.0, 0.0}, Relation::kLessEqual, 12.0);
  p.add_constraint({0.0, 1.0, 3.0}, Relation::kLessEqual, 15.0);

  runtime::ComputeBudget tight;
  tight.cap_nodes(1);
  SimplexOptions options = revised_options();
  options.budget = &tight;
  EXPECT_EQ(solve(p, options).status, SolveStatus::kBudgetExhausted);

  runtime::ComputeBudget roomy;
  roomy.cap_nodes(1000);
  options.budget = &roomy;
  EXPECT_TRUE(solve(p, options).optimal());
}

TEST(RevisedSimplex, LeastCoreMatchesDenseAndWarmChains) {
  // 3-player superadditive game with a known non-empty core.
  game::TabularGame tab(3, {0.0, 1.0, 1.0, 3.0, 1.0, 3.0, 3.0, 9.0});
  const game::LeastCoreResult dense = game::least_core(tab);
  const game::LeastCoreResult revised =
      game::least_core(tab, revised_options());
  ASSERT_TRUE(dense.solved);
  ASSERT_TRUE(revised.solved);
  EXPECT_NEAR(revised.epsilon, dense.epsilon, 1e-8);
}

TEST(RevisedSimplex, NucleolusMatchesDense) {
  // 4-player game: nucleolus per engine must coincide coordinatewise.
  std::vector<double> v(16, 0.0);
  for (std::uint64_t m = 1; m < 16; ++m) {
    v[m] = static_cast<double>(__builtin_popcountll(m));
    if (m == 15) v[m] = 8.0;
  }
  v[0b0011] = 3.0;
  v[0b1100] = 2.5;
  game::TabularGame tab(4, v);
  const game::NucleolusResult dense = game::nucleolus(tab);
  const game::NucleolusResult revised =
      game::nucleolus(tab, revised_options());
  ASSERT_TRUE(dense.solved);
  ASSERT_TRUE(revised.solved);
  ASSERT_EQ(dense.allocation.size(), revised.allocation.size());
  for (std::size_t i = 0; i < dense.allocation.size(); ++i) {
    EXPECT_NEAR(revised.allocation[i], dense.allocation[i], 1e-6)
        << "player " << i;
  }
}

}  // namespace
}  // namespace fedshare::lp
