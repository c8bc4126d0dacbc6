// lp::BatchSolver: a solve_objective chain must be *bitwise* the chain of
// per-probe RevisedSimplex::solve_from_basis calls it replaces — status,
// objective, x, duals, pivot counts, basis snapshots and budget charges.
// The probe LPs are least-core programs over random games with eps
// pinned, the shape the nucleolus probe chains solve.
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lp/batch_solver.hpp"
#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "runtime/budget.hpp"

namespace fedshare::lp {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Least-core LP of a random n-player superadditive-ish game with eps
// pinned at the least-core level: variables x_0..x_{n-1}, eps; rows
// x(N) = v(N), x(S) + eps >= v(S) for every proper S, eps == eps*.
Problem pinned_least_core(int n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::uint32_t count = 1u << n;
  std::vector<double> v(count, 0.0);
  for (std::uint32_t mask = 1; mask < count; ++mask) {
    double size = 0.0;
    for (int i = 0; i < n; ++i) size += (mask >> i) & 1u;
    v[mask] = size * size * (0.5 + unit(rng));
  }
  const auto nv = static_cast<std::size_t>(n);
  const auto row = [&](std::uint32_t mask, double eps_coeff) {
    std::vector<double> r(nv + 1, 0.0);
    for (std::size_t i = 0; i < nv; ++i) {
      if ((mask >> i) & 1u) r[i] = 1.0;
    }
    r[nv] = eps_coeff;
    return r;
  };
  const auto build = [&](Objective sense) {
    Problem prob(nv + 1, sense);
    for (std::size_t i = 0; i <= nv; ++i) prob.set_free(i);
    prob.add_constraint(row(count - 1, 0.0), Relation::kEqual, v[count - 1]);
    for (std::uint32_t mask = 1; mask + 1 < count; ++mask) {
      prob.add_constraint(row(mask, 1.0), Relation::kGreaterEqual, v[mask]);
    }
    return prob;
  };
  Problem least_core = build(Objective::kMinimize);
  least_core.set_objective_coefficient(nv, 1.0);
  const Solution least = solve_revised(least_core);
  EXPECT_TRUE(least.optimal());
  Problem prob = build(Objective::kMaximize);
  std::vector<double> pin(nv + 1, 0.0);
  pin[nv] = 1.0;
  prob.add_constraint(std::move(pin), Relation::kEqual, least.objective);
  return prob;
}

// The nucleolus probe objectives: +x_v and -x_v for every player, then
// the same sequence again (repeated objectives re-price against an
// unchanged frame), then random directions that force pivots.
std::vector<std::vector<double>> probe_objectives(std::size_t nv,
                                                  std::uint32_t seed) {
  std::vector<std::vector<double>> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t v = 0; v < nv; ++v) {
      for (const double sign : {1.0, -1.0}) {
        std::vector<double> obj(nv + 1, 0.0);
        obj[v] = sign;
        out.push_back(std::move(obj));
      }
    }
  }
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(-1.0, 1.0);
  for (int k = 0; k < 6; ++k) {
    std::vector<double> obj(nv + 1, 0.0);
    for (std::size_t v = 0; v < nv; ++v) obj[v] = coef(rng);
    out.push_back(obj);
    out.push_back(std::move(obj));  // an immediate repeat: zero pivots
  }
  return out;
}

struct ChainStep {
  Solution sol;
  Basis basis;
};

// The chain as ObjectiveChain runs it: each probe warm from the last
// optimal basis, through BatchSolver::solve_objective.
std::vector<ChainStep> batch_chain(
    const RevisedSimplex& proto,
    const std::vector<std::vector<double>>& objectives) {
  BatchSolver solver(proto);
  Basis basis;
  std::vector<ChainStep> out;
  for (const auto& obj : objectives) {
    ChainStep step;
    step.sol = solver.solve_objective(obj, basis, &step.basis);
    if (step.sol.optimal()) basis = step.basis;
    out.push_back(std::move(step));
  }
  return out;
}

// The same chain as per-probe solve_from_basis calls on one engine.
std::vector<ChainStep> reference_chain(
    const RevisedSimplex& proto,
    const std::vector<std::vector<double>>& objectives) {
  RevisedSimplex engine = proto;
  Basis basis;
  std::vector<ChainStep> out;
  for (const auto& obj : objectives) {
    for (std::size_t v = 0; v < obj.size(); ++v) {
      engine.set_objective_coefficient(v, obj[v]);
    }
    ChainStep step;
    step.sol = engine.solve_from_basis(basis);  // cold while basis is empty
    step.basis = engine.basis();
    if (step.sol.optimal()) basis = step.basis;
    out.push_back(std::move(step));
  }
  return out;
}

TEST(BatchSolverObjectiveChain, BitIdenticalToPerProbeWarmChain) {
  int zero_pivot_probes = 0;
  int pivoting_probes = 0;
  for (const int n : {3, 4, 5, 6}) {
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed);
      const Problem prob = pinned_least_core(n, seed);
      SimplexOptions options;
      options.solver = SolverKind::kRevised;
      const RevisedSimplex proto(prob, options);
      const auto objectives =
          probe_objectives(static_cast<std::size_t>(n), seed);
      const std::vector<ChainStep> got = batch_chain(proto, objectives);
      const std::vector<ChainStep> want = reference_chain(proto, objectives);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "probe " << k);
        const Solution& g = got[k].sol;
        const Solution& w = want[k].sol;
        ASSERT_EQ(g.status, w.status);
        EXPECT_TRUE(same_bits(g.objective, w.objective));
        EXPECT_EQ(g.pivots, w.pivots);
        EXPECT_TRUE(same_bits(g.x, w.x));
        EXPECT_TRUE(same_bits(g.duals, w.duals));
        EXPECT_EQ(got[k].basis.status, want[k].basis.status);
        EXPECT_EQ(got[k].basis.num_structural, want[k].basis.num_structural);
        (w.pivots == 0 ? zero_pivot_probes : pivoting_probes) += 1;
      }
    }
  }
  // Both frame paths ran: zero-pivot probes extracted off the cached
  // factorization, and pivoting probes resumed from it.
  EXPECT_GT(zero_pivot_probes, 0);
  EXPECT_GT(pivoting_probes, 0);
}

// Row generation inside a chain: halfway through, one held-back excess
// row is appended to both the BatchSolver and the per-probe engine. The
// cached frame is dropped, the held basis lacks the new slack, and every
// later probe must still match the per-probe chain bit for bit.
TEST(BatchSolverObjectiveChain, BitIdenticalAfterAnAppendedRow) {
  for (const int n : {4, 5, 6}) {
    for (std::uint32_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed);
      const Problem full = pinned_least_core(n, seed);
      // Hold back the "all but player 0" row (the last excess row).
      const std::size_t held = full.num_constraints() - 2;
      Problem partial(full.num_variables(), full.sense());
      for (std::size_t v = 0; v < full.num_variables(); ++v) {
        partial.set_free(v);
      }
      for (std::size_t i = 0; i < full.num_constraints(); ++i) {
        if (i == held) continue;
        const Constraint& c = full.constraints()[i];
        partial.add_constraint(c.coefficients, c.relation, c.rhs);
      }
      SimplexOptions options;
      options.solver = SolverKind::kRevised;
      const RevisedSimplex proto(partial, options);
      const auto objectives =
          probe_objectives(static_cast<std::size_t>(n), seed);
      const std::size_t split = objectives.size() / 2;

      BatchSolver solver(proto);
      RevisedSimplex engine = proto;
      Basis batch_basis;
      Basis ref_basis;
      for (std::size_t k = 0; k < objectives.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "probe " << k);
        if (k == split) {
          const Constraint& c = full.constraints()[held];
          solver.add_constraint(c.coefficients, c.relation, c.rhs);
          engine.add_constraint(c.coefficients, c.relation, c.rhs);
        }
        Basis next;
        const Solution g =
            solver.solve_objective(objectives[k], batch_basis, &next);
        if (g.optimal()) batch_basis = next;
        for (std::size_t v = 0; v < objectives[k].size(); ++v) {
          engine.set_objective_coefficient(v, objectives[k][v]);
        }
        const Solution w = engine.solve_from_basis(ref_basis);
        if (w.optimal()) ref_basis = engine.basis();
        ASSERT_EQ(g.status, w.status);
        EXPECT_TRUE(same_bits(g.objective, w.objective));
        EXPECT_EQ(g.pivots, w.pivots);
        EXPECT_TRUE(same_bits(g.x, w.x));
        EXPECT_TRUE(same_bits(g.duals, w.duals));
        EXPECT_EQ(batch_basis.status, ref_basis.status);
      }
      EXPECT_EQ(batch_basis.status.size(), engine.num_columns());
    }
  }
}

TEST(BatchSolverObjectiveChain, ChargesBudgetLikePerProbeWarmChain) {
  // The cached path must replay the per-probe budget charges (one unit
  // for the dual sweep's entry check plus one for the primal pass on a
  // zero-pivot probe), so a capped budget trips at the same probe.
  const Problem prob = pinned_least_core(5, 7);
  const auto objectives = probe_objectives(5, 7);
  const auto charges = [&](bool batched, std::uint64_t cap) {
    runtime::ComputeBudget budget = runtime::ComputeBudget::unlimited();
    if (cap > 0) budget.cap_nodes(cap);
    SimplexOptions options;
    options.solver = SolverKind::kRevised;
    options.budget = &budget;
    const RevisedSimplex proto(prob, options);
    const std::vector<ChainStep> chain = batched
                                             ? batch_chain(proto, objectives)
                                             : reference_chain(proto, objectives);
    std::vector<SolveStatus> statuses;
    for (const ChainStep& step : chain) statuses.push_back(step.sol.status);
    return std::make_pair(budget.used(), statuses);
  };
  const auto full_batch = charges(true, 0);
  const auto full_ref = charges(false, 0);
  EXPECT_EQ(full_batch, full_ref);
  ASSERT_GT(full_ref.first, 4u);
  const auto capped_batch = charges(true, full_ref.first / 2);
  const auto capped_ref = charges(false, full_ref.first / 2);
  EXPECT_EQ(capped_batch, capped_ref);
  EXPECT_EQ(capped_ref.second.back(), SolveStatus::kBudgetExhausted);
}

}  // namespace
}  // namespace fedshare::lp
