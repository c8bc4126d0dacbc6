// Tests for the LP substrate: matrix ops, problem building, simplex.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "lp/matrix.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "verify/certificates.hpp"

namespace fedshare::lp {
namespace {

TEST(Matrix, ConstructAndAccess) {
  Matrix m;
  m.assign(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m.row_data(0)[0], 7.0);
}

TEST(Matrix, RowOperations) {
  Matrix m;
  m.assign(2, 2, 0.0);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 3.0;
  m(1, 1) = 4.0;
  m.add_scaled_row(1, 0, -3.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), -2.0);
  m.scale_row(1, -0.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.0);
  m.swap_rows(0, 1);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
}

TEST(Problem, ValidatesInputs) {
  EXPECT_THROW(Problem(0), std::invalid_argument);
  Problem p(2);
  EXPECT_THROW(p.set_objective_coefficient(2, 1.0), std::out_of_range);
  EXPECT_THROW(p.add_constraint({1.0}, Relation::kLessEqual, 1.0),
               std::invalid_argument);
  EXPECT_THROW(p.set_free(5), std::out_of_range);
}

TEST(Problem, ReshapeClearsEveryRowAndEditWritesInPlace) {
  Problem p(3, Objective::kMaximize);
  p.set_free(0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0, 1.0}, Relation::kEqual, 4.0);
  p.add_constraint({0.0, 1.0, 0.0}, Relation::kGreaterEqual, 1.0);
  p.reshape(2, 3);
  EXPECT_EQ(p.num_variables(), 2u);
  EXPECT_EQ(p.num_constraints(), 3u);
  EXPECT_EQ(p.objective(), std::vector<double>(2, 0.0));
  EXPECT_FALSE(p.is_free(0));
  for (const Constraint& c : p.constraints()) {
    EXPECT_EQ(c.coefficients, std::vector<double>(2, 0.0));
    EXPECT_EQ(c.relation, Relation::kLessEqual);
    EXPECT_EQ(c.rhs, 0.0);
  }
  const std::span<double> row = p.edit_constraint(2, Relation::kEqual, 5.0);
  ASSERT_EQ(row.size(), 2u);
  row[1] = -1.0;
  EXPECT_EQ(p.constraints()[2].coefficients, (std::vector<double>{0.0, -1.0}));
  EXPECT_EQ(p.constraints()[2].relation, Relation::kEqual);
  EXPECT_EQ(p.constraints()[2].rhs, 5.0);
  EXPECT_THROW((void)p.edit_constraint(3, Relation::kEqual, 0.0),
               std::out_of_range);
  EXPECT_THROW(p.reshape(0, 1), std::invalid_argument);
  EXPECT_THROW((void)p.is_free(2), std::out_of_range);
}

TEST(Simplex, SolvesSimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), obj 12.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-8);
  EXPECT_NEAR(s.x[0], 4.0, 1e-8);
  EXPECT_NEAR(s.x[1], 0.0, 1e-8);
}

TEST(Simplex, SolvesMinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2 -> (10 - y)... optimum (10, 0)? No:
  // cost of x is cheaper, so all x: x = 10, y = 0, obj 20.
  Problem p(2, Objective::kMinimize);
  p.set_objective_coefficient(0, 2.0);
  p.set_objective_coefficient(1, 3.0);
  p.add_constraint({1.0, 1.0}, Relation::kGreaterEqual, 10.0);
  p.add_constraint({1.0, 0.0}, Relation::kGreaterEqual, 2.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 20.0, 1e-8);
  EXPECT_NEAR(s.x[0], 10.0, 1e-8);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // max x + y s.t. x + y = 5, x - y = 1 -> x = 3, y = 2.
  Problem p(2);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kEqual, 5.0);
  p.add_constraint({1.0, -1.0}, Relation::kEqual, 1.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 3.0, 1e-8);
  EXPECT_NEAR(s.x[1], 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  Problem p(1);
  p.add_constraint({1.0}, Relation::kLessEqual, 1.0);
  p.add_constraint({1.0}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Problem p(1, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({-1.0}, Relation::kLessEqual, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, HandlesFreeVariables) {
  // min x s.t. x >= -5 with x free -> x = -5.
  Problem p(1, Objective::kMinimize);
  p.set_free(0);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0}, Relation::kGreaterEqual, -5.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], -5.0, 1e-8);
}

TEST(Simplex, HandlesNegativeRhs) {
  // max x s.t. -x <= -3 (i.e. x >= 3), x <= 10 -> x = 10.
  Problem p(1, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({-1.0}, Relation::kLessEqual, -3.0);
  p.add_constraint({1.0}, Relation::kLessEqual, 10.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 10.0, 1e-8);
}

TEST(Simplex, NoConstraintsZeroObjectiveIsOptimalAtOrigin) {
  Problem p(2, Objective::kMinimize);
  p.set_objective_coefficient(0, 1.0);  // minimized at x = 0
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(Simplex, NoConstraintsImprovingDirectionIsUnbounded) {
  Problem p(1, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // A classic cycling-prone instance (Beale); Bland's rule must terminate.
  Problem p(4, Objective::kMaximize);
  p.set_objective_coefficient(0, 0.75);
  p.set_objective_coefficient(1, -150.0);
  p.set_objective_coefficient(2, 0.02);
  p.set_objective_coefficient(3, -6.0);
  p.add_constraint({0.25, -60.0, -1.0 / 25.0, 9.0}, Relation::kLessEqual,
                   0.0);
  p.add_constraint({0.5, -90.0, -1.0 / 50.0, 3.0}, Relation::kLessEqual, 0.0);
  p.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 0.05, 1e-8);
}

TEST(Simplex, StatusNames) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
}

TEST(Simplex, RedundantEqualityRowsHandled) {
  // x + y = 2 stated twice; still solvable.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kEqual, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kEqual, 2.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
}

// --- Started dense solves ----------------------------------------------------

// A least-core LP over three players: min eps s.t. x0 + x1 + x2 == 6 and
// x(S) + eps >= V(S) for every proper S, all variables free.
Problem least_core_lp() {
  Problem p(4, Objective::kMinimize);
  for (std::size_t v = 0; v < 4; ++v) p.set_free(v);
  p.set_objective_coefficient(3, 1.0);
  p.add_constraint({1.0, 1.0, 1.0, 0.0}, Relation::kEqual, 6.0);
  const double values[] = {1.0, 0.5, 3.0, 2.0, 4.5, 3.5};
  for (unsigned mask = 1; mask < 7; ++mask) {
    std::vector<double> row(4, 0.0);
    for (std::size_t i = 0; i < 3; ++i) row[i] = (mask >> i) & 1u ? 1.0 : 0.0;
    row[3] = 1.0;
    p.add_constraint(std::move(row), Relation::kGreaterEqual,
                     values[mask - 1]);
  }
  return p;
}

// The started solve must reach the cold solve's status and objective,
// and its certificate must hold against the original problem.
void expect_matches_cold(const Problem& p, const std::vector<double>& start) {
  const Solution cold = solve(p);
  const Solution started = solve(p, {}, start);
  ASSERT_EQ(started.status, cold.status);
  if (cold.optimal()) {
    EXPECT_NEAR(started.objective, cold.objective, 1e-9);
    ASSERT_EQ(started.x.size(), p.num_variables());
    ASSERT_EQ(started.duals.size(), p.num_constraints());
  }
  if (cold.status == SolveStatus::kInfeasible) {
    ASSERT_EQ(started.farkas.size(), p.num_constraints());
  }
  const auto report = verify::check_lp(p, started);
  EXPECT_TRUE(report.checked);
  EXPECT_TRUE(report.valid) << report.detail;
}

TEST(StartedSolve, FeasibleStartMatchesColdWithFewerPivots) {
  const Problem p = least_core_lp();
  // Equal split with eps at the largest excess: every >= row holds.
  std::vector<double> start = {2.0, 2.0, 2.0, 0.5};
  expect_matches_cold(p, start);
  EXPECT_LT(solve(p, {}, start).pivots, solve(p).pivots);
}

TEST(StartedSolve, InfeasibleStartMatchesCold) {
  const Problem p = least_core_lp();
  expect_matches_cold(p, {-40.0, 13.0, 7.5, -9.0});
}

TEST(StartedSolve, InfeasibleProblemCarriesAFarkasRay) {
  Problem p(2, Objective::kMaximize);
  p.set_free(0);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 1.0);
  p.add_constraint({1.0, -1.0}, Relation::kGreaterEqual, 3.0);
  p.add_constraint({0.0, 1.0}, Relation::kGreaterEqual, 0.5);
  expect_matches_cold(p, {0.25, 7.0});
  expect_matches_cold(p, {-5.0, 0.0});
  EXPECT_EQ(solve(p, {}, {0.25, 7.0}).status, SolveStatus::kInfeasible);
}

TEST(StartedSolve, NonFreeCoordinatesAreIgnored) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kGreaterEqual, 6.0);
  const Solution cold = solve(p);
  const Solution started =
      solve(p, {}, {std::numeric_limits<double>::quiet_NaN(), -8.0});
  ASSERT_TRUE(started.optimal());
  EXPECT_EQ(started.x, cold.x);
  EXPECT_EQ(started.duals, cold.duals);
  EXPECT_EQ(started.pivots, cold.pivots);
}

TEST(StartedSolve, StartMustHaveOneFiniteEntryPerVariable) {
  const Problem p = least_core_lp();
  EXPECT_THROW((void)solve(p, {}, {1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW((void)solve(p, {}, {1.0, 2.0, 3.0, 4.0, 5.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)solve(p, {}, {1.0, std::numeric_limits<double>::infinity(), 3.0,
                          4.0}),
      std::invalid_argument);
  SimplexOptions revised;
  revised.solver = SolverKind::kRevised;
  EXPECT_THROW((void)solve(p, revised, {}), std::invalid_argument);
}

TEST(StartedSolve, RevisedEngineIgnoresTheStart) {
  const Problem p = least_core_lp();
  SimplexOptions revised;
  revised.solver = SolverKind::kRevised;
  const Solution cold = solve(p, revised);
  const Solution started = solve(p, revised, {2.0, 2.0, 2.0, 0.5});
  ASSERT_TRUE(started.optimal());
  EXPECT_EQ(started.x, cold.x);
  EXPECT_EQ(started.pivots, cold.pivots);
}

TEST(StartedSolve, ZeroRhsGreaterEqualRowTakesNoArtificial) {
  // max -x - y s.t. x - y >= 0: the origin is optimal. An artificial on
  // the zero-rhs row would cost a phase-1 pivot to drive out.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, -1.0);
  p.set_objective_coefficient(1, -1.0);
  p.add_constraint({1.0, -1.0}, Relation::kGreaterEqual, 0.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.pivots, 0u);
  EXPECT_EQ(s.objective, 0.0);
}

TEST(StartedSolve, RowViolatedByRoundingCountsAsSatisfied) {
  // min y s.t. x + y >= 1, x free. From x = 1 - 2^-50 the row is short
  // by 2^-50, inside the 1e-12 allowance: no artificial, no pivot. From
  // x = 0.5 it is violated outright and phase 1 repairs it.
  Problem p(2, Objective::kMinimize);
  p.set_free(0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kGreaterEqual, 1.0);
  const std::vector<double> near = {1.0 - std::ldexp(1.0, -50), 0.0};
  const Solution s = solve(p, {}, near);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.pivots, 0u);
  EXPECT_EQ(s.x[0], near[0]);
  expect_matches_cold(p, near);
  const Solution far = solve(p, {}, {0.5, 0.0});
  ASSERT_TRUE(far.optimal());
  EXPECT_GT(far.pivots, 0u);
  expect_matches_cold(p, {0.5, 0.0});
}

TEST(StartedSolve, UnboundedRayIsInOriginalCoordinates) {
  Problem p(2, Objective::kMaximize);
  p.set_free(0);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0, -1.0}, Relation::kLessEqual, 2.0);
  expect_matches_cold(p, {5.0, 0.0});
  EXPECT_EQ(solve(p, {}, {5.0, 0.0}).status, SolveStatus::kUnbounded);
}

// --- Satisfied equalities substituted out ----------------------------------

void expect_certified(const Problem& p, const Solution& s) {
  const auto report = verify::check_lp(p, s);
  EXPECT_TRUE(report.checked);
  EXPECT_TRUE(report.valid) << report.detail;
}

TEST(StartedSolve, EpsPinnedLpStartedAtItsOptimumTakesNoPivot) {
  // The least-core LP re-solved with eps pinned at its optimum, from
  // that optimum: efficiency and the pin are substituted out, every >=
  // row holds, and the substituted objective is 0, so the start is
  // optimal as it stands. The pin carries eps's objective as its dual.
  const Problem round = least_core_lp();
  const Solution opt = solve(round);
  ASSERT_TRUE(opt.optimal());
  Problem pinned = round;
  pinned.add_constraint({0.0, 0.0, 0.0, 1.0}, Relation::kEqual, opt.x[3]);
  const Solution s = solve(pinned, {}, opt.x);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.pivots, 0u);
  EXPECT_EQ(s.x, opt.x);
  EXPECT_EQ(s.objective, opt.objective);
  ASSERT_EQ(s.duals.size(), pinned.num_constraints());
  EXPECT_NEAR(s.duals.back(), 1.0, 1e-12);
  expect_certified(pinned, s);
}

TEST(StartedSolve, EliminatedRowsCarryTheirDualsUnderBothSenses) {
  // max 3 x0 + x1 + x2 / 2 s.t. x0 + x1 + x2 == 4, x0 - x1 <= 1,
  // x1 <= 2, x2 <= 3; x0, x1 free, x2 >= 0. The optimum (2.5, 1.5, 0)
  // has the unique duals (2, 1, 0, 0). From (2, 2, 0) the equality holds
  // and x0 is substituted out, so its dual comes from the completion;
  // the cold solve keeps the row and reads it off the tableau.
  for (const Objective sense : {Objective::kMaximize, Objective::kMinimize}) {
    const double c = sense == Objective::kMaximize ? 1.0 : -1.0;
    Problem p(3, sense);
    p.set_free(0);
    p.set_free(1);
    p.set_objective_coefficient(0, 3.0 * c);
    p.set_objective_coefficient(1, 1.0 * c);
    p.set_objective_coefficient(2, 0.5 * c);
    p.add_constraint({1.0, 1.0, 1.0}, Relation::kEqual, 4.0);
    p.add_constraint({1.0, -1.0, 0.0}, Relation::kLessEqual, 1.0);
    p.add_constraint({0.0, 1.0, 0.0}, Relation::kLessEqual, 2.0);
    p.add_constraint({0.0, 0.0, 1.0}, Relation::kLessEqual, 3.0);
    const Solution cold = solve(p);
    const Solution started = solve(p, {}, {2.0, 2.0, 0.0});
    for (const Solution* s : {&cold, &started}) {
      ASSERT_TRUE(s->optimal());
      EXPECT_NEAR(s->objective, 9.0 * c, 1e-12);
      EXPECT_NEAR(s->x[0], 2.5, 1e-12);
      EXPECT_NEAR(s->x[1], 1.5, 1e-12);
      EXPECT_NEAR(s->x[2], 0.0, 1e-12);
      ASSERT_EQ(s->duals.size(), 4u);
      EXPECT_NEAR(s->duals[0], 2.0 * c, 1e-12);
      EXPECT_NEAR(s->duals[1], 1.0 * c, 1e-12);
      EXPECT_NEAR(s->duals[2], 0.0, 1e-12);
      EXPECT_NEAR(s->duals[3], 0.0, 1e-12);
      expect_certified(p, *s);
    }
  }
}

TEST(StartedSolve, DependentEqualitiesAreDroppedWithZeroDuals) {
  // max x0 + 2 x2 over free x0..x2 s.t. r0: x0 + x1 == 2, r1: x1 - x2 ==
  // 0, r2 a duplicate of r0, r3 = r0 + r1, x0 <= 3, x2 <= 5. From
  // (1, 1, 1) r0 and r1 substitute x0 and x1 out, and r2 and r3 reduce
  // to 0 = 0: dropped, with dual 0. Optimum x = (-3, 5, 5), objective 7,
  // duals (1, -1, 0, 0, 0, 1).
  Problem p(3, Objective::kMaximize);
  for (std::size_t v = 0; v < 3; ++v) p.set_free(v);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(2, 2.0);
  p.add_constraint({1.0, 1.0, 0.0}, Relation::kEqual, 2.0);
  p.add_constraint({0.0, 1.0, -1.0}, Relation::kEqual, 0.0);
  p.add_constraint({1.0, 1.0, 0.0}, Relation::kEqual, 2.0);
  p.add_constraint({1.0, 2.0, -1.0}, Relation::kEqual, 2.0);
  p.add_constraint({1.0, 0.0, 0.0}, Relation::kLessEqual, 3.0);
  p.add_constraint({0.0, 0.0, 1.0}, Relation::kLessEqual, 5.0);
  const Solution s = solve(p, {}, {1.0, 1.0, 1.0});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 7.0, 1e-12);
  const std::vector<double> want_x = {-3.0, 5.0, 5.0};
  const std::vector<double> want_y = {1.0, -1.0, 0.0, 0.0, 0.0, 1.0};
  for (std::size_t v = 0; v < 3; ++v) EXPECT_NEAR(s.x[v], want_x[v], 1e-12);
  ASSERT_EQ(s.duals.size(), want_y.size());
  for (std::size_t r = 0; r < want_y.size(); ++r) {
    EXPECT_NEAR(s.duals[r], want_y[r], 1e-12) << "row " << r;
  }
  expect_certified(p, s);
  expect_matches_cold(p, {1.0, 1.0, 1.0});
}

TEST(StartedSolve, SatisfiedEqualityOverNonFreeColumnsKeepsItsArtificial) {
  // max x0 + x1 s.t. x0 == 1, x1 + x2 == 0, x1 <= 5; x0 free, x1, x2 >=
  // 0. Both equalities hold at the start, but the second has no free
  // column to solve for and does not reduce to 0 = 0: it stays in the
  // tableau and still forces x1 = x2 = 0.
  Problem p(3, Objective::kMaximize);
  p.set_free(0);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 0.0, 0.0}, Relation::kEqual, 1.0);
  p.add_constraint({0.0, 1.0, 1.0}, Relation::kEqual, 0.0);
  p.add_constraint({0.0, 1.0, 0.0}, Relation::kLessEqual, 5.0);
  const Solution s = solve(p, {}, {1.0, 7.0, 7.0});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 1.0, 1e-12);
  EXPECT_EQ(s.x[1], 0.0);
  EXPECT_EQ(s.x[2], 0.0);
  expect_certified(p, s);
  expect_matches_cold(p, {1.0, 7.0, 7.0});
}

TEST(StartedSolve, FarkasRayCompletesAnEliminatedRowsMultiplier) {
  // x0 - x1 == 0, x0 >= 3, x1 <= 1 over free x0, x1: infeasible, and
  // every Farkas ray needs the equality (y = (-t, t, -t), y^T b = 2t).
  // From (1, 1) the equality is substituted out, so its multiplier is
  // the completion's.
  Problem p(2, Objective::kMaximize);
  p.set_free(0);
  p.set_free(1);
  p.add_constraint({1.0, -1.0}, Relation::kEqual, 0.0);
  p.add_constraint({1.0, 0.0}, Relation::kGreaterEqual, 3.0);
  p.add_constraint({0.0, 1.0}, Relation::kLessEqual, 1.0);
  const Solution s = solve(p, {}, {1.0, 1.0});
  ASSERT_EQ(s.status, SolveStatus::kInfeasible);
  ASSERT_EQ(s.farkas.size(), 3u);
  EXPECT_LT(s.farkas[0], 0.0);
  EXPECT_NEAR(s.farkas[0], -s.farkas[1], 1e-12);
  EXPECT_NEAR(s.farkas[0], s.farkas[2], 1e-12);
  expect_certified(p, s);
  expect_matches_cold(p, {1.0, 1.0});
}

TEST(StartedSolve, UnboundedRayExtendsToEliminatedVariables) {
  // max x0 s.t. x0 - 2 x1 == 0, x1 >= 0 over free x0, x1: from (2, 1)
  // the equality substitutes x1 = x0 / 2 out, and the ray must still
  // move x1 along with x0.
  Problem p(2, Objective::kMaximize);
  p.set_free(0);
  p.set_free(1);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0, -2.0}, Relation::kEqual, 0.0);
  p.add_constraint({0.0, 1.0}, Relation::kGreaterEqual, 0.0);
  const Solution s = solve(p, {}, {2.0, 1.0});
  ASSERT_EQ(s.status, SolveStatus::kUnbounded);
  ASSERT_EQ(s.ray.size(), 2u);
  EXPECT_GT(s.ray[0], 0.0);
  EXPECT_NEAR(s.ray[1], 0.5 * s.ray[0], 1e-12);
  expect_certified(p, s);
  expect_matches_cold(p, {2.0, 1.0});
}

// --- One workspace across solves ------------------------------------------

// The bit patterns of a vector, so that -0.0 and 0.0 (and NaNs) count as
// different.
std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

void expect_bitwise_equal(const Solution& a, const Solution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.objective),
            std::bit_cast<std::uint64_t>(b.objective));
  EXPECT_EQ(a.pivots, b.pivots);
  EXPECT_EQ(bits(a.x), bits(b.x));
  EXPECT_EQ(bits(a.duals), bits(b.duals));
  EXPECT_EQ(bits(a.farkas), bits(b.farkas));
  EXPECT_EQ(bits(a.ray), bits(b.ray));
}

// The least-core LP of an n-player game with V(S) = |S|^1.5 + (mask % 7)
// / 4 (all variables free), started from the equal split with eps at the
// largest excess: 2^n - 1 rows, n + 1 columns.
struct StartedLp {
  Problem problem;
  std::vector<double> start;
};

StartedLp large_least_core_lp(int n) {
  const auto nv = static_cast<std::size_t>(n);
  StartedLp lp{Problem(nv + 1, Objective::kMinimize), {}};
  for (std::size_t v = 0; v <= nv; ++v) lp.problem.set_free(v);
  lp.problem.set_objective_coefficient(nv, 1.0);
  const auto value = [](unsigned mask) {
    const double size = std::popcount(mask);
    return std::pow(size, 1.5) + static_cast<double>(mask % 7) / 4.0;
  };
  const unsigned grand = (1u << n) - 1;
  std::vector<double> row(nv + 1, 1.0);
  row[nv] = 0.0;
  lp.problem.add_constraint(row, Relation::kEqual, value(grand));
  const double share = value(grand) / n;
  double eps = -std::numeric_limits<double>::infinity();
  for (unsigned mask = 1; mask < grand; ++mask) {
    for (std::size_t i = 0; i < nv; ++i) row[i] = (mask >> i) & 1u ? 1.0 : 0.0;
    row[nv] = 1.0;
    lp.problem.add_constraint(row, Relation::kGreaterEqual, value(mask));
    eps = std::max(eps, value(mask) - share * std::popcount(mask));
  }
  lp.start.assign(nv, share);
  lp.start.push_back(eps);
  return lp;
}

TEST(StartedSolve, ReusedWorkspaceMatchesFreshSolveBitwise) {
  std::vector<StartedLp> chain;
  chain.push_back(large_least_core_lp(8));  // 255 rows x 9 columns first
  chain.push_back({least_core_lp(), {2.0, 2.0, 2.0, 0.5}});
  {
    // Infeasible: x0 - x1 == 0, x0 >= 3, x1 <= 1 (a Farkas ray).
    Problem p(2, Objective::kMaximize);
    p.set_free(0);
    p.set_free(1);
    p.add_constraint({1.0, -1.0}, Relation::kEqual, 0.0);
    p.add_constraint({1.0, 0.0}, Relation::kGreaterEqual, 3.0);
    p.add_constraint({0.0, 1.0}, Relation::kLessEqual, 1.0);
    chain.push_back({p, {1.0, 1.0}});
  }
  {
    // Unbounded: max x0 s.t. x0 - 2 x1 == 0, x1 >= 0 (a recession ray).
    Problem p(2, Objective::kMaximize);
    p.set_free(0);
    p.set_free(1);
    p.set_objective_coefficient(0, 1.0);
    p.add_constraint({1.0, -2.0}, Relation::kEqual, 0.0);
    p.add_constraint({0.0, 1.0}, Relation::kGreaterEqual, 0.0);
    chain.push_back({p, {2.0, 1.0}});
  }
  {
    // Wider than the first in columns, shorter in rows, non-free columns
    // and a satisfied equality that keeps its artificial.
    Problem p(12, Objective::kMaximize);
    p.set_free(0);
    for (std::size_t v = 0; v < 12; ++v) {
      p.set_objective_coefficient(v, 1.0 + static_cast<double>(v % 3));
    }
    std::vector<double> sum(12, 1.0);
    p.add_constraint(sum, Relation::kLessEqual, 10.0);
    std::vector<double> eq(12, 0.0);
    eq[0] = 1.0;
    p.add_constraint(eq, Relation::kEqual, 1.0);
    eq.assign(12, 0.0);
    eq[4] = 1.0;
    eq[5] = 1.0;
    p.add_constraint(eq, Relation::kEqual, 0.0);
    chain.push_back({p, std::vector<double>(12, 1.0)});
  }
  chain.push_back(large_least_core_lp(5));
  chain.push_back(large_least_core_lp(8));  // the first shape again

  DenseWorkspace workspace;
  for (std::size_t k = 0; k < chain.size(); ++k) {
    SCOPED_TRACE(k);
    const Solution fresh = solve(chain[k].problem, {}, chain[k].start);
    const Solution reused =
        solve(chain[k].problem, {}, chain[k].start, workspace);
    expect_bitwise_equal(reused, fresh);
    expect_certified(chain[k].problem, reused);
  }
  EXPECT_EQ(solve(chain[2].problem, {}, chain[2].start, workspace).status,
            SolveStatus::kInfeasible);
  EXPECT_EQ(solve(chain[3].problem, {}, chain[3].start, workspace).status,
            SolveStatus::kUnbounded);
}

class RecordingObserver final : public SolveObserver {
 public:
  void on_solve(const Problem& problem, Solution& solution) override {
    seen = &problem;
    rhs.clear();
    for (const auto& c : problem.constraints()) rhs.push_back(c.rhs);
    objective = solution.objective;
  }
  const Problem* seen = nullptr;
  std::vector<double> rhs;
  double objective = 0.0;
};

TEST(StartedSolve, ObserverSeesTheUnshiftedProblem) {
  const Problem p = least_core_lp();
  RecordingObserver observer;
  SimplexOptions options;
  options.observer = &observer;
  const Solution s = solve(p, options, {2.0, 2.0, 2.0, 0.5});
  EXPECT_EQ(observer.seen, &p);
  std::vector<double> want;
  for (const auto& c : p.constraints()) want.push_back(c.rhs);
  EXPECT_EQ(observer.rhs, want);
  EXPECT_EQ(observer.objective, s.objective);
  EXPECT_TRUE(verify::check_lp(*observer.seen, s).valid);
}

}  // namespace
}  // namespace fedshare::lp
