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
  EXPECT_EQ(engine.num_rows(), 1u);
  EXPECT_EQ(engine.num_structural(), 2u);
  const Solution s = engine.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 9.0, 1e-8);
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
  EXPECT_EQ(b.status.size(), engine.num_columns());
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
  // Same constraint set, family of objectives: the previous optimum
  // stays primal feasible, so each re-solve is a phase-2-only run.
  Problem p(3, Objective::kMaximize);
  p.add_constraint({1.0, 1.0, 1.0}, Relation::kLessEqual, 10.0);
  p.add_constraint({1.0, 2.0, 0.0}, Relation::kLessEqual, 12.0);
  p.add_constraint({0.0, 1.0, 3.0}, Relation::kLessEqual, 15.0);
  RevisedSimplex engine(p);
  Basis basis;
  const double costs[4][3] = {
      {1.0, 2.0, 3.0}, {3.0, 1.0, 0.5}, {0.2, 0.4, 5.0}, {2.0, 2.0, 2.0}};
  for (const auto& c : costs) {
    Problem fresh(3, Objective::kMaximize);
    fresh.add_constraint({1.0, 1.0, 1.0}, Relation::kLessEqual, 10.0);
    fresh.add_constraint({1.0, 2.0, 0.0}, Relation::kLessEqual, 12.0);
    fresh.add_constraint({0.0, 1.0, 3.0}, Relation::kLessEqual, 15.0);
    for (std::size_t j = 0; j < 3; ++j) {
      engine.set_objective_coefficient(j, c[j]);
      fresh.set_objective_coefficient(j, c[j]);
    }
    const Solution warm =
        basis.empty() ? engine.solve() : engine.solve_from_basis(basis);
    ASSERT_TRUE(warm.optimal());
    basis = engine.basis();
    const Solution dense = solve(fresh);
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

// The row-generation step: appending a row to a solved instance grows
// the basis by the row's slack, and a warm re-solve from the pre-append
// basis lands on the cold optimum of the grown problem.
TEST(RevisedSimplex, AppendedViolatedRowResolvesWarmLikeColdGrownProblem) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  RevisedSimplex engine(p);
  ASSERT_TRUE(engine.solve().optimal());  // (4, 0)
  const Basis before = engine.basis();
  const std::size_t rows = engine.num_rows();

  // x - y <= 1 cuts (4, 0) off.
  engine.add_constraint({1.0, -1.0}, Relation::kLessEqual, 1.0);
  p.add_constraint({1.0, -1.0}, Relation::kLessEqual, 1.0);
  EXPECT_EQ(engine.num_rows(), rows + 1);
  EXPECT_EQ(engine.basis().status.size(), before.status.size() + 1);
  const Solution warm = engine.solve_from_basis(before);
  const Solution cold = solve(p);
  ASSERT_EQ(warm.status, cold.status);
  ASSERT_TRUE(warm.optimal());
  EXPECT_GT(warm.pivots, 0u);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_EQ(engine.basis().status.size(), engine.num_columns());
}

TEST(RevisedSimplex, AppendedSatisfiedRowCostsNoPivot) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  RevisedSimplex engine(p);
  const Solution first = engine.solve();
  ASSERT_TRUE(first.optimal());
  const Basis before = engine.basis();
  engine.add_constraint({1.0, 1.0}, Relation::kLessEqual, 10.0);
  const Solution again = engine.solve_from_basis(before);
  ASSERT_TRUE(again.optimal());
  EXPECT_EQ(again.pivots, 0u);
  EXPECT_EQ(again.objective, first.objective);
  EXPECT_EQ(again.x, first.x);
}

// Row generation on a least-core LP: start from the singleton and
// "all but one" rows, append the most violated excess row after each
// warm re-solve, and agree with a cold dense solve of the same grown
// problem at every step, and with the full LP at the end.
TEST(RevisedSimplex, RowGenerationReachesTheFullLeastCore) {
  const int n = 5;
  const std::uint64_t grand = (std::uint64_t{1} << n) - 1;
  std::vector<double> v(grand + 1, 0.0);
  for (std::uint64_t m = 1; m <= grand; ++m) {
    const int size = __builtin_popcountll(m);
    v[m] = size * (1.0 + 0.25 * static_cast<double>((m * 7919) % 17));
  }
  const auto row = [&](std::uint64_t mask, double eps) {
    std::vector<double> r(static_cast<std::size_t>(n) + 1, 0.0);
    for (int i = 0; i < n; ++i) r[static_cast<std::size_t>(i)] = (mask >> i) & 1u;
    r[static_cast<std::size_t>(n)] = eps;
    return r;
  };
  const auto base = [&] {
    Problem p(static_cast<std::size_t>(n) + 1, Objective::kMinimize);
    for (int i = 0; i <= n; ++i) p.set_free(static_cast<std::size_t>(i));
    p.set_objective_coefficient(static_cast<std::size_t>(n), 1.0);
    p.add_constraint(row(grand, 0.0), Relation::kEqual, v[grand]);
    return p;
  };
  Problem full = base();
  for (std::uint64_t m = 1; m < grand; ++m) {
    full.add_constraint(row(m, 1.0), Relation::kGreaterEqual, v[m]);
  }
  Problem grown = base();
  std::vector<char> in(grand + 1, 0);
  for (int i = 0; i < n; ++i) {
    for (const std::uint64_t m :
         {std::uint64_t{1} << i, grand ^ (std::uint64_t{1} << i)}) {
      grown.add_constraint(row(m, 1.0), Relation::kGreaterEqual, v[m]);
      in[m] = 1;
    }
  }
  RevisedSimplex engine(grown, revised_options());
  Solution sol = engine.solve();
  int appended = 0;
  for (;;) {
    ASSERT_TRUE(sol.optimal());
    const Solution cold = solve(grown);
    ASSERT_TRUE(cold.optimal());
    EXPECT_NEAR(sol.objective, cold.objective, 1e-9);
    std::uint64_t worst = 0;
    double worst_violation = 1e-9;
    for (std::uint64_t m = 1; m < grand; ++m) {
      if (in[m] != 0) continue;
      double x = sol.x[static_cast<std::size_t>(n)];
      for (int i = 0; i < n; ++i) {
        if ((m >> i) & 1u) x += sol.x[static_cast<std::size_t>(i)];
      }
      if (v[m] - x > worst_violation) {
        worst_violation = v[m] - x;
        worst = m;
      }
    }
    if (worst == 0) break;
    const Basis before = engine.basis();
    engine.add_constraint(row(worst, 1.0), Relation::kGreaterEqual, v[worst]);
    grown.add_constraint(row(worst, 1.0), Relation::kGreaterEqual, v[worst]);
    in[worst] = 1;
    ++appended;
    sol = engine.solve_from_basis(before);
  }
  EXPECT_GT(appended, 0);
  const Solution whole = solve(full);
  ASSERT_TRUE(whole.optimal());
  EXPECT_NEAR(sol.objective, whole.objective, 1e-9);
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
