// Property tests for the simplex solvers: random two-variable LPs solved
// independently by brute-force vertex enumeration, randomized agreement
// between the dense and revised engines across solve statuses, and the
// capacity-patched allocation relaxation against its per-pool reference.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "model/demand.hpp"
#include "model/location_space.hpp"
#include "alloc/lp_relax.hpp"
#include "sim/rng.hpp"

namespace fedshare::lp {
namespace {

struct Lp2 {
  // max c0 x + c1 y subject to a_i x + b_i y <= r_i, x, y >= 0.
  double c0 = 0.0;
  double c1 = 0.0;
  std::vector<std::array<double, 3>> rows;  // a, b, r
};

Lp2 random_lp(std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  Lp2 lp;
  lp.c0 = rng.uniform(0.1, 2.0);
  lp.c1 = rng.uniform(0.1, 2.0);
  const int m = 2 + static_cast<int>(rng.below(4));  // 2..5 constraints
  for (int i = 0; i < m; ++i) {
    lp.rows.push_back({rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                       rng.uniform(0.5, 6.0)});
  }
  return lp;
}

// Brute force: enumerate every intersection of two constraint boundaries
// (including the axes) and take the best feasible point. Valid for
// bounded problems with positive data (always bounded here: positive
// costs, positive coefficients, x,y >= 0).
double brute_force_optimum(const Lp2& lp) {
  std::vector<std::array<double, 3>> boundaries = lp.rows;
  boundaries.push_back({1.0, 0.0, 0.0});  // x = 0
  boundaries.push_back({0.0, 1.0, 0.0});  // y = 0
  auto feasible = [&](double x, double y) {
    if (x < -1e-9 || y < -1e-9) return false;
    for (const auto& row : lp.rows) {
      if (row[0] * x + row[1] * y > row[2] + 1e-9) return false;
    }
    return true;
  };
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    for (std::size_t j = i + 1; j < boundaries.size(); ++j) {
      const double det = boundaries[i][0] * boundaries[j][1] -
                         boundaries[j][0] * boundaries[i][1];
      if (std::abs(det) < 1e-12) continue;
      const double x = (boundaries[i][2] * boundaries[j][1] -
                        boundaries[j][2] * boundaries[i][1]) /
                       det;
      const double y = (boundaries[i][0] * boundaries[j][2] -
                        boundaries[j][0] * boundaries[i][2]) /
                       det;
      if (feasible(x, y)) {
        best = std::max(best, lp.c0 * x + lp.c1 * y);
      }
    }
  }
  return best;
}

class SimplexVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimplexVsBruteForce, OptimaAgree) {
  const Lp2 lp = random_lp(GetParam());
  Problem prob(2, Objective::kMaximize);
  prob.set_objective_coefficient(0, lp.c0);
  prob.set_objective_coefficient(1, lp.c1);
  for (const auto& row : lp.rows) {
    prob.add_constraint({row[0], row[1]}, Relation::kLessEqual, row[2]);
  }
  const Solution sol = solve(prob);
  ASSERT_TRUE(sol.optimal()) << "seed " << GetParam();
  const double brute = brute_force_optimum(lp);
  EXPECT_NEAR(sol.objective, brute, 1e-7) << "seed " << GetParam();
  // And the reported point must itself be feasible.
  for (const auto& row : lp.rows) {
    EXPECT_LE(row[0] * sol.x[0] + row[1] * sol.x[1], row[2] + 1e-7);
  }
  EXPECT_GE(sol.x[0], -1e-9);
  EXPECT_GE(sol.x[1], -1e-9);
}

TEST_P(SimplexVsBruteForce, MinimizationIsConsistentWithNegatedMax) {
  const Lp2 lp = random_lp(GetParam() ^ 0xf00dULL);
  // min -(c0 x + c1 y) == -max(c0 x + c1 y).
  Problem max_p(2, Objective::kMaximize);
  Problem min_p(2, Objective::kMinimize);
  max_p.set_objective_coefficient(0, lp.c0);
  max_p.set_objective_coefficient(1, lp.c1);
  min_p.set_objective_coefficient(0, -lp.c0);
  min_p.set_objective_coefficient(1, -lp.c1);
  for (const auto& row : lp.rows) {
    max_p.add_constraint({row[0], row[1]}, Relation::kLessEqual, row[2]);
    min_p.add_constraint({row[0], row[1]}, Relation::kLessEqual, row[2]);
  }
  const Solution a = solve(max_p);
  const Solution b = solve(min_p);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_NEAR(a.objective, -b.objective, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexVsBruteForce,
                         ::testing::Range<std::uint64_t>(0, 40));

// ---------------------------------------------------------------------
// Dense vs revised engine agreement on unrestricted random LPs (signed
// coefficients, mixed relations, free variables), which exercise every
// solve status: optimal, infeasible, and unbounded.

Problem random_general_lp(std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  const auto n = 2 + rng.below(4);   // 2..5 variables
  const auto m = 1 + rng.below(6);   // 1..6 constraints
  Problem p(n, rng.below(2) == 0 ? Objective::kMaximize
                                 : Objective::kMinimize);
  for (std::size_t j = 0; j < n; ++j) {
    p.set_objective_coefficient(j, rng.uniform(-2.0, 2.0));
    if (rng.below(4) == 0) p.set_free(j);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> row(n);
    for (auto& a : row) {
      a = rng.below(4) == 0 ? 0.0 : rng.uniform(-2.0, 2.0);
    }
    const auto rel = rng.below(3);
    p.add_constraint(std::move(row),
                     rel == 0   ? Relation::kLessEqual
                     : rel == 1 ? Relation::kGreaterEqual
                                : Relation::kEqual,
                     rng.uniform(-4.0, 6.0));
  }
  return p;
}

class RevisedVsDense : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RevisedVsDense, StatusAndObjectiveAgree) {
  const Problem p = random_general_lp(GetParam());
  SimplexOptions revised;
  revised.solver = SolverKind::kRevised;
  const Solution a = solve(p);
  const Solution b = solve(p, revised);
  ASSERT_EQ(a.status, b.status) << "seed " << GetParam();
  if (a.optimal()) {
    const double scale = std::max(1.0, std::abs(a.objective));
    EXPECT_NEAR(a.objective, b.objective, 1e-7 * scale)
        << "seed " << GetParam();
  }
}

TEST_P(RevisedVsDense, WarmEqualsColdAfterRhsPatches) {
  // Snapshot the basis at one rhs vector, patch every rhs, and check the
  // warm re-solve agrees with a cold solve of the patched problem (both
  // engines). Statuses may legitimately change with the patch.
  Problem p = random_general_lp(GetParam() ^ 0xbeefULL);
  SimplexOptions options;
  options.solver = SolverKind::kRevised;
  RevisedSimplex engine(p, options);
  const Solution first = engine.solve();
  if (!first.optimal()) return;  // warm start needs a usable basis
  const Basis basis = engine.basis();

  sim::Xoshiro256 rng(GetParam() ^ 0xabcdULL);
  for (std::size_t c = 0; c < p.num_constraints(); ++c) {
    const double rhs = rng.uniform(-4.0, 6.0);
    engine.set_constraint_rhs(c, rhs);
    p.set_constraint_rhs(c, rhs);
  }
  const Solution warm = engine.solve_from_basis(basis);
  const Solution cold_dense = solve(p);
  ASSERT_EQ(warm.status, cold_dense.status) << "seed " << GetParam();
  if (warm.optimal()) {
    const double scale = std::max(1.0, std::abs(cold_dense.objective));
    EXPECT_NEAR(warm.objective, cold_dense.objective, 1e-7 * scale)
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedVsDense,
                         ::testing::Range<std::uint64_t>(0, 200));

}  // namespace
}  // namespace fedshare::lp

// ---------------------------------------------------------------------
// The allocation relaxation over a fixed location set: capacity patches
// that zero a coalition's uncovered locations must reproduce the
// standalone per-pool relaxation on both engines, and a warm chain of
// capacity patches must only change pivot counts (never values).

namespace fedshare::model {
namespace {

LocationSpace sweep_space(int num_facilities) {
  std::vector<FacilityConfig> configs;
  for (int i = 0; i < num_facilities; ++i) {
    FacilityConfig cfg;
    cfg.name = "F" + std::to_string(i + 1);
    cfg.num_locations = 6 + 3 * (i % 4);
    cfg.units_per_location = 1.0 + 0.5 * (i % 3);
    cfg.availability = 1.0 - 0.05 * (i % 5);
    configs.push_back(std::move(cfg));
  }
  // Overlapping layout: shared locations make the pooled capacities —
  // and hence the LPs — interact across coalition members.
  return LocationSpace::overlapping(std::move(configs), 30, /*seed=*/11);
}

DemandProfile sweep_demand() {
  // Multiple classes so the capacity rows carry >= 2 nonzeros; a single
  // class presolves entirely into bounds and solves with zero pivots.
  DemandProfile demand;
  demand.classes.push_back({/*count=*/6.0, /*min_locations=*/4.0,
                            /*units_per_location=*/1.0, /*exponent=*/1.0,
                            /*holding_time=*/1.0});
  demand.classes.push_back({3.0, 8.0, 2.0, 1.0, 1.0});
  demand.classes.push_back({2.0, 2.0, 1.5, 0.8, 1.0});
  return demand;
}

// Capacity of each grand-pool location held by `coalition` (0 where no
// member covers it): the rhs a RelaxationTemplate over the grand pool
// takes to stand in for pool_for(coalition).
std::vector<double> grand_pool_caps(const LocationSpace& space,
                                    game::Coalition coalition) {
  const std::vector<int> grand = space.pooled_location_ids(
      game::Coalition::grand(space.num_facilities()));
  const std::vector<int> ids = space.pooled_location_ids(coalition);
  const alloc::LocationPool pool = space.pool_for(coalition);
  std::vector<double> caps(grand.size(), 0.0);
  std::size_t g = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    while (grand[g] != ids[k]) ++g;
    caps[g] = pool.capacity[k];
  }
  return caps;
}

alloc::RelaxationTemplate grand_template(const LocationSpace& space,
                                         const DemandProfile& demand) {
  return alloc::RelaxationTemplate(
      space.pooled_location_ids(game::Coalition::grand(space.num_facilities()))
          .size(),
      demand.classes);
}

TEST(LpSweepProperty, MatchesPerPoolReferenceBothEngines) {
  const LocationSpace space = sweep_space(6);
  const DemandProfile demand = sweep_demand();
  const alloc::RelaxationTemplate tmpl = grand_template(space, demand);
  lp::SimplexOptions revised;
  revised.solver = lp::SolverKind::kRevised;
  const lp::RevisedSimplex proto(tmpl.problem(), revised);

  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << 6); ++mask) {
    const auto coalition = game::Coalition::from_bits(mask);
    const std::vector<double> caps = grand_pool_caps(space, coalition);
    lp::Problem dense = tmpl.problem();
    tmpl.apply_capacities(dense, caps);
    const lp::Solution rd = lp::solve(dense);
    lp::RevisedSimplex engine = proto;
    engine.apply(tmpl.capacity_patch(caps));
    const lp::Solution rr = engine.solve();
    ASSERT_TRUE(rd.optimal()) << "mask " << mask;
    ASSERT_TRUE(rr.optimal()) << "mask " << mask;
    const double reference =
        alloc::lp_upper_bound(space.pool_for(coalition), demand.classes);
    EXPECT_NEAR(rd.objective, reference, 1e-7) << "mask " << mask;
    EXPECT_NEAR(rr.objective, reference, 1e-7) << "mask " << mask;
  }
}

TEST(LpSweepProperty, WarmStartChangesPivotsNotValues) {
  // Every coalition in Gray-code order, so each link of the chain adds
  // or drops one facility's capacities: warm from the previous optimum
  // on one engine versus a cold solve per coalition.
  const LocationSpace space = sweep_space(6);
  const DemandProfile demand = sweep_demand();
  const alloc::RelaxationTemplate tmpl = grand_template(space, demand);
  lp::SimplexOptions revised;
  revised.solver = lp::SolverKind::kRevised;
  const lp::RevisedSimplex proto(tmpl.problem(), revised);

  lp::RevisedSimplex warm = proto;
  lp::Basis basis;
  std::uint64_t warm_pivots = 0;
  std::uint64_t cold_pivots = 0;
  for (std::uint64_t k = 1; k < (std::uint64_t{1} << 6); ++k) {
    const std::uint64_t mask = k ^ (k >> 1);
    const lp::ProblemPatch patch = tmpl.capacity_patch(
        grand_pool_caps(space, game::Coalition::from_bits(mask)));
    warm.apply(patch);
    const lp::Solution rw = warm.solve_from_basis(basis);
    lp::RevisedSimplex cold = proto;
    cold.apply(patch);
    const lp::Solution rc = cold.solve();
    ASSERT_TRUE(rw.optimal()) << "mask " << mask;
    ASSERT_TRUE(rc.optimal()) << "mask " << mask;
    EXPECT_NEAR(rw.objective, rc.objective, 1e-9) << "mask " << mask;
    basis = warm.basis();
    warm_pivots += rw.pivots;
    cold_pivots += rc.pivots;
  }
  // Warm starting exists to cut pivots; on this overlapping instance the
  // chain must do strictly less work than solving every link cold.
  EXPECT_LT(warm_pivots, cold_pivots);
}

}  // namespace
}  // namespace fedshare::model
