// Tests for src/verify: LP certificates on both engines, iterative
// refinement, the cross-engine cascade (with injected faults), the game
// auditor, warm-chain certification on capacity-patched relaxation LPs,
// and the steady-clock pin on runtime::ComputeBudget.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "alloc/lp_relax.hpp"
#include "cli/runner.hpp"
#include "core/game.hpp"
#include "core/nucleolus.hpp"
#include "core/sharing.hpp"
#include "io/config.hpp"
#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "model/demand.hpp"
#include "model/location_space.hpp"
#include "runtime/budget.hpp"
#include "verify/audit.hpp"
#include "verify/certificates.hpp"
#include "verify/certified.hpp"
#include "verify/refine.hpp"

namespace fedshare {
namespace {

using lp::Objective;
using lp::Problem;
using lp::Relation;
using lp::SimplexOptions;
using lp::Solution;
using lp::SolverKind;
using lp::SolveStatus;
using verify::CascadeRung;
using verify::VerifyLevel;
using verify::VerifyOptions;

Solution solve_with(const Problem& p, SolverKind kind) {
  SimplexOptions options;
  options.solver = kind;
  return lp::solve(p, options);
}

void expect_certified(const Problem& p, SolveStatus want, const char* label) {
  for (const SolverKind kind : {SolverKind::kDense, SolverKind::kRevised}) {
    const Solution s = solve_with(p, kind);
    ASSERT_EQ(s.status, want) << label;
    const auto report = verify::check_lp(p, s);
    EXPECT_TRUE(report.checked) << label << ": no certificate ("
                                << (kind == SolverKind::kDense ? "dense"
                                                               : "revised")
                                << ")";
    EXPECT_TRUE(report.valid) << label << ": " << report.detail << " ("
                              << (kind == SolverKind::kDense ? "dense"
                                                             : "revised")
                              << ")";
  }
}

// ---------------------------------------------------------------------
// Certificates on hand-built fixtures, both engines.

TEST(VerifyCertificates, OptimalMaximize) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  expect_certified(p, SolveStatus::kOptimal, "optimal max");
}

TEST(VerifyCertificates, OptimalMinimizeWithFreeVariable) {
  Problem p(3, Objective::kMinimize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 2.0);
  p.set_objective_coefficient(2, -1.0);
  p.set_free(2);
  p.add_constraint({1.0, 1.0, 1.0}, Relation::kEqual, 3.0);
  p.add_constraint({0.0, 1.0, -1.0}, Relation::kGreaterEqual, 1.0);
  p.add_constraint({0.0, 0.0, 1.0}, Relation::kLessEqual, 5.0);
  expect_certified(p, SolveStatus::kOptimal, "optimal min free");
}

TEST(VerifyCertificates, InfeasibleFarkas) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kGreaterEqual, 2.0);
  expect_certified(p, SolveStatus::kInfeasible, "infeasible");
}

TEST(VerifyCertificates, UnboundedRay) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, -1.0);
  p.add_constraint({1.0, -1.0}, Relation::kGreaterEqual, 0.0);
  p.add_constraint({0.0, 1.0}, Relation::kLessEqual, 10.0);
  expect_certified(p, SolveStatus::kUnbounded, "unbounded");
}

// Regression: a variable fixed by a singleton row (presolved upper
// bound 0 meeting the natural lower bound 0) whose reduced cost
// supports the *upper* bound. The revised engine's dual extraction must
// discharge onto the singleton constraint even though the recorded
// status says "at lower". Found by tools/fuzz_lp (seed 3698).
TEST(VerifyCertificates, DegenerateFixedVariable) {
  Problem p(2, Objective::kMinimize);
  p.set_objective_coefficient(0, -1.5);
  p.set_objective_coefficient(1, 0.5);
  p.add_constraint({2.5, 0.0}, Relation::kLessEqual, 0.0);
  p.add_constraint({-2.0, 4.0}, Relation::kEqual, 2.5);
  expect_certified(p, SolveStatus::kOptimal, "degenerate fixed");
}

TEST(VerifyCertificates, IllConditionedNearParallel) {
  // Two nearly parallel rows: the optimal basis matrix has condition
  // number ~1e7. The certificate must still close to tolerance (the
  // cascade would refine or escalate otherwise — require it doesn't
  // need to).
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 2.0);
  p.add_constraint({1.0, 1.0 + 1e-7}, Relation::kLessEqual, 2.0 + 3e-7);
  SimplexOptions options;
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  for (const SolverKind kind : {SolverKind::kDense, SolverKind::kRevised}) {
    options.solver = kind;
    const auto certified = verify::certified_solve(p, options, vopts);
    EXPECT_EQ(certified.solution.status, SolveStatus::kOptimal);
    EXPECT_TRUE(certified.report.valid) << certified.report.detail;
  }
}

TEST(VerifyCertificates, WrongAnswerRejected) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  Solution s = solve_with(p, SolverKind::kDense);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  s.x[0] += 2.0;  // primal infeasible now
  const auto report = verify::check_lp(p, s);
  EXPECT_TRUE(report.checked);
  EXPECT_FALSE(report.valid);
  EXPECT_GT(report.max_residual, 1.0);
}

TEST(VerifyCertificates, LimitStatusesCarryNoCertificate) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  Solution s;
  s.status = SolveStatus::kIterationLimit;
  const auto report = verify::check_lp(p, s);
  EXPECT_FALSE(report.checked);
  EXPECT_FALSE(report.valid);
}

// ---------------------------------------------------------------------
// Iterative refinement.

TEST(VerifyRefine, RepairsPerturbedOptimum) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  Solution s = solve_with(p, SolverKind::kDense);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  ASSERT_FALSE(s.duals.empty());
  // Simulate drift accumulated across a warm chain.
  s.x[0] += 3e-5;
  s.x[1] -= 2e-5;
  s.objective += 5e-5;
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  const auto before = verify::check_lp(p, s, vopts.tolerance);
  ASSERT_FALSE(before.valid);
  const auto refined = verify::refine_lp(p, s, vopts);
  EXPECT_TRUE(refined.attempted);
  EXPECT_LT(refined.residual_after, before.max_residual);
  const auto after = verify::check_lp(p, s, vopts.tolerance);
  EXPECT_TRUE(after.valid) << after.detail;
}

TEST(VerifyRefine, NonOptimalIsANoOp) {
  Problem p(1, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0}, Relation::kGreaterEqual, 2.0);
  p.add_constraint({1.0}, Relation::kLessEqual, 1.0);
  Solution s = solve_with(p, SolverKind::kDense);
  ASSERT_EQ(s.status, SolveStatus::kInfeasible);
  VerifyOptions vopts;
  const auto r = verify::refine_lp(p, s, vopts);
  EXPECT_FALSE(r.attempted);
}

// ---------------------------------------------------------------------
// The verification cascade.

Problem cascade_problem() {
  Problem p(3, Objective::kMaximize);
  p.set_objective_coefficient(0, 2.0);
  p.set_objective_coefficient(1, 3.0);
  p.set_objective_coefficient(2, 1.0);
  p.add_constraint({1.0, 1.0, 1.0}, Relation::kLessEqual, 10.0);
  p.add_constraint({1.0, 2.0, 0.0}, Relation::kLessEqual, 8.0);
  p.add_constraint({0.0, 1.0, 2.0}, Relation::kGreaterEqual, 2.0);
  return p;
}

TEST(VerifyCascade, CleanSolveAnswersAtPrimary) {
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  SimplexOptions options;
  options.solver = SolverKind::kRevised;
  const auto c = verify::certified_solve(cascade_problem(), options, vopts);
  EXPECT_EQ(c.rung, CascadeRung::kPrimary);
  EXPECT_TRUE(c.report.valid);
}

// The acceptance fixture: a wrong-pivot-style fault corrupts every rung
// except the dense cold re-solve; the cascade must notice each bad
// answer and hand the dense engine the final word.
TEST(VerifyCascade, InjectedFaultFallsThroughToDense) {
  const Problem p = cascade_problem();
  const Solution truth = solve_with(p, SolverKind::kDense);
  ASSERT_EQ(truth.status, SolveStatus::kOptimal);

  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  vopts.fault_hook = [](Solution& s, CascadeRung rung) {
    if (rung == CascadeRung::kDenseCold) return;
    if (s.status != SolveStatus::kOptimal) return;
    if (!s.x.empty()) s.x[0] += 5.0;  // a wrong pivot's footprint
    s.objective += 5.0;
  };
  SimplexOptions options;
  options.solver = SolverKind::kRevised;
  const auto c = verify::certified_solve(p, options, vopts);
  EXPECT_EQ(c.rung, CascadeRung::kDenseCold);
  EXPECT_TRUE(c.report.valid) << c.report.detail;
  EXPECT_NEAR(c.solution.objective, truth.objective, 1e-9);
}

TEST(VerifyCascade, ObserverRepairsInPlace) {
  const Problem p = cascade_problem();
  const Solution truth = solve_with(p, SolverKind::kDense);

  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  vopts.fault_hook = [](Solution& s, CascadeRung rung) {
    if (rung != CascadeRung::kPrimary) return;
    if (s.status != SolveStatus::kOptimal) return;
    s.objective -= 1.0;
  };
  SimplexOptions options;
  options.solver = SolverKind::kRevised;
  verify::CertifyingObserver observer(vopts, options);
  options.observer = &observer;
  Solution s = lp::solve(p, options);  // notifies the observer
  EXPECT_NEAR(s.objective, truth.objective, 1e-9);
  const auto stats = observer.stats();
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GE(stats.refined + stats.escalated, 1u);
}

// ---------------------------------------------------------------------
// Game and outcome audits.

game::TabularGame convex_game(int n) {
  const std::uint64_t size = std::uint64_t{1} << n;
  std::vector<double> values(size);
  for (std::uint64_t mask = 0; mask < size; ++mask) {
    const int c = __builtin_popcountll(mask);
    values[mask] = static_cast<double>(c) * static_cast<double>(c);
  }
  return game::TabularGame(n, std::move(values));
}

TEST(VerifyAudit, CleanGamePasses) {
  const auto g = convex_game(6);
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kCheap;
  const auto report = verify::audit_game(g, vopts);
  EXPECT_TRUE(report.passed);
  EXPECT_GT(report.checks, 0u);
}

TEST(VerifyAudit, DetectsCorruptedValue) {
  const int n = 6;
  const std::uint64_t size = std::uint64_t{1} << n;
  std::vector<double> values(size);
  for (std::uint64_t mask = 0; mask < size; ++mask) {
    values[mask] = static_cast<double>(__builtin_popcountll(mask));
  }
  values[size - 2] = -40.0;  // a dip: breaks monotonicity badly
  const game::TabularGame g(n, std::move(values));
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kCheap;
  vopts.audit_samples = 512;
  const auto report = verify::audit_game(g, vopts);
  EXPECT_FALSE(report.passed);
  ASSERT_FALSE(report.issues.empty());
}

TEST(VerifyAudit, SubadditiveGameIsNotedNotFailed) {
  // Overlapping federations are genuinely not superadditive (shared
  // capacity is double-counted until pooled): the auditor must surface
  // that as a note, not fail the run. V(S) = min(|S|, 1) is monotone
  // but maximally subadditive.
  const int n = 5;
  const std::uint64_t size = std::uint64_t{1} << n;
  std::vector<double> values(size);
  for (std::uint64_t mask = 1; mask < size; ++mask) values[mask] = 1.0;
  const game::TabularGame g(n, std::move(values));
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kCheap;
  vopts.audit_samples = 256;
  const auto report = verify::audit_game(g, vopts);
  EXPECT_TRUE(report.passed);
  EXPECT_TRUE(report.issues.empty());
  EXPECT_FALSE(report.notes.empty());
  for (const auto& note : report.notes) {
    EXPECT_EQ(note.check, "superadditivity");
  }
}

// The nucleolus check re-solves the least core under the report's LP
// options, budget included. When that LP cannot finish the check is not
// counted, and a note names the LP status instead of skipping silently.
TEST(VerifyAudit, ExhaustedBudgetNotesTheUncheckedNucleolus) {
  const auto g = convex_game(6);
  const auto outcomes = game::compare_schemes(g, {}, {}).outcomes;
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kCheap;

  verify::AuditReport checked;
  verify::audit_outcomes(g, outcomes, SimplexOptions{}, vopts, checked);
  EXPECT_TRUE(checked.notes.empty());

  runtime::ComputeBudget spent;
  spent.cap_nodes(0);
  (void)spent.charge();
  ASSERT_TRUE(spent.exhausted());
  SimplexOptions lp_options;
  lp_options.budget = &spent;
  verify::AuditReport unchecked;
  verify::audit_outcomes(g, outcomes, lp_options, vopts, unchecked);
  EXPECT_TRUE(unchecked.passed);
  EXPECT_EQ(unchecked.checks + 1, checked.checks);
  ASSERT_EQ(unchecked.notes.size(), 1u);
  EXPECT_EQ(unchecked.notes[0].check, "nucleolus");
  EXPECT_NE(unchecked.notes[0].detail.find("budget-exhausted"),
            std::string::npos)
      << unchecked.notes[0].detail;
}

// The scheme comparison plus its audit, wired as the CLI report wires
// --verify: at kFull a CertifyingObserver rides on the comparison's LP
// options, and every level but kOff audits the finished outcomes.
struct AuditedSchemes {
  std::vector<game::SchemeOutcome> outcomes;
  verify::AuditReport report;
};

AuditedSchemes audited_schemes(const game::TabularGame& g, SolverKind solver,
                               const VerifyOptions& vopts) {
  SimplexOptions lp_options;
  lp_options.solver = solver;
  verify::CertifyingObserver observer(vopts, lp_options);
  if (vopts.level == VerifyLevel::kFull) lp_options.observer = &observer;
  AuditedSchemes out;
  out.outcomes = game::compare_schemes(g, {}, {}, lp_options).outcomes;
  if (vopts.level == VerifyLevel::kOff) return out;
  out.report = verify::audit_game(g, vopts);
  verify::audit_outcomes(g, out.outcomes, lp_options, vopts, out.report);
  if (vopts.level == VerifyLevel::kFull) {
    out.report.lp = observer.stats();
    out.report.lp_stats_valid = true;
  }
  return out;
}

TEST(VerifyAudit, FullLevelCertifiesEveryNucleolusSolveN10) {
  // The acceptance bar: an n = 10 scheme comparison at --verify=full
  // where every LP solve (every nucleolus LP included) carries a
  // validated certificate. The solve count must cover the nucleolus's
  // own LP count, so its rounds, release passes and probes were all
  // certified. One pass only: the n = 10 nucleolus carries 1022 excess
  // rows per LP.
  const auto g = convex_game(10);
  SimplexOptions lp_options;
  lp_options.solver = SolverKind::kRevised;
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  const auto audited = audited_schemes(g, lp_options.solver, vopts);
  EXPECT_TRUE(audited.report.passed);
  ASSERT_TRUE(audited.report.lp_stats_valid);
  EXPECT_GE(audited.report.lp.solves,
            game::nucleolus(g, lp_options).lps_solved);
  EXPECT_EQ(audited.report.lp.failures, 0u);
  EXPECT_EQ(audited.report.lp.unchecked, 0u);
  EXPECT_EQ(audited.report.lp.certified, audited.report.lp.solves);
  EXPECT_LT(audited.report.lp.worst_residual, 1e-9);
}

TEST(VerifyAudit, FullLevelDoesNotChangeAnswers) {
  const auto g = convex_game(6);
  SimplexOptions lp_options;
  lp_options.solver = SolverKind::kRevised;
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  const auto audited = audited_schemes(g, lp_options.solver, vopts);
  const auto plain = audited_schemes(g, lp_options.solver, VerifyOptions{});
  ASSERT_EQ(plain.outcomes.size(), audited.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    ASSERT_EQ(plain.outcomes[i].scheme, audited.outcomes[i].scheme);
    for (std::size_t j = 0; j < plain.outcomes[i].shares.size(); ++j) {
      EXPECT_NEAR(plain.outcomes[i].shares[j],
                  audited.outcomes[i].shares[j], 1e-9);
    }
  }
}

TEST(VerifyAudit, FaultedRunIsRepairedEndToEnd) {
  // Corrupt every primary nucleolus solve; the cascade must repair each
  // one so the final shares match an unfaulted run.
  const auto g = convex_game(5);
  SimplexOptions lp_options;
  lp_options.solver = SolverKind::kRevised;

  const auto clean = audited_schemes(g, lp_options.solver, VerifyOptions{});

  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  vopts.fault_hook = [](Solution& s, CascadeRung rung) {
    if (rung != CascadeRung::kPrimary) return;
    if (s.status != SolveStatus::kOptimal) return;
    s.objective += 0.25;
    if (!s.x.empty()) s.x[0] -= 0.25;
  };
  const auto audited = audited_schemes(g, lp_options.solver, vopts);
  ASSERT_TRUE(audited.report.lp_stats_valid);
  EXPECT_EQ(audited.report.lp.failures, 0u);
  EXPECT_GE(audited.report.lp.refined + audited.report.lp.escalated, 1u);

  ASSERT_EQ(clean.outcomes.size(), audited.outcomes.size());
  for (std::size_t i = 0; i < clean.outcomes.size(); ++i) {
    for (std::size_t j = 0; j < clean.outcomes[i].shares.size(); ++j) {
      EXPECT_NEAR(clean.outcomes[i].shares[j],
                  audited.outcomes[i].shares[j], 1e-7)
          << game::to_string(clean.outcomes[i].scheme);
    }
  }
}

TEST(VerifyAudit, ResilientVerifiedMatchesPlain) {
  const auto g = convex_game(5);
  const runtime::ComputeBudget budget;
  SimplexOptions lp_options;
  lp_options.solver = SolverKind::kRevised;
  lp_options.budget = &budget;
  const auto plain = game::compare_schemes(g, {}, {}, lp_options);
  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  const auto verified = audited_schemes(g, SolverKind::kRevised, vopts);
  const verify::AuditReport& audit = verified.report;
  EXPECT_TRUE(audit.passed);
  EXPECT_TRUE(audit.lp_stats_valid);
  EXPECT_EQ(audit.lp.failures, 0u);
  ASSERT_EQ(plain.outcomes.size(), verified.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    for (std::size_t j = 0; j < plain.outcomes[i].shares.size(); ++j) {
      EXPECT_NEAR(plain.outcomes[i].shares[j],
                  verified.outcomes[i].shares[j], 1e-9);
    }
  }
}

// ---------------------------------------------------------------------
// Warm-chain certification on capacity-patched relaxation LPs.

// Capacity of each grand-pool location held by `coalition` (0 where no
// member covers it), the rhs a RelaxationTemplate over the grand pool
// takes.
std::vector<double> grand_pool_caps(const model::LocationSpace& space,
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

// Objectives of a warm chain over every coalition in Gray-code order
// (each link adds or drops one facility's capacities), with `options`
// on every solve.
std::vector<double> warm_chain_values(const model::LocationSpace& space,
                                      const alloc::RelaxationTemplate& tmpl,
                                      const SimplexOptions& options) {
  lp::RevisedSimplex engine(tmpl.problem(), options);
  lp::Basis basis;
  std::vector<double> values;
  const int n = space.num_facilities();
  for (std::uint64_t k = 1; k < (std::uint64_t{1} << n); ++k) {
    const std::uint64_t mask = k ^ (k >> 1);
    engine.apply(tmpl.capacity_patch(
        grand_pool_caps(space, game::Coalition::from_bits(mask))));
    const Solution sol = engine.solve_from_basis(basis);
    EXPECT_TRUE(sol.optimal()) << "mask " << mask;
    basis = engine.basis();
    values.push_back(sol.objective);
  }
  return values;
}

TEST(VerifySweepChain, WarmStartedSweepFullyCertified) {
  // 2^6 - 1 coalition LPs, each warm-started from the previous link;
  // every solve the chain produces must carry a valid certificate, and
  // certification must not perturb a single value.
  std::vector<model::FacilityConfig> configs;
  for (int i = 0; i < 6; ++i) {
    model::FacilityConfig cfg;
    cfg.name = "F" + std::to_string(i + 1);
    cfg.num_locations = 6 + 3 * (i % 4);
    cfg.units_per_location = 1.0 + 0.5 * (i % 3);
    configs.push_back(std::move(cfg));
  }
  const model::LocationSpace space =
      model::LocationSpace::overlapping(std::move(configs), 30, /*seed=*/11);
  model::DemandProfile demand;
  demand.classes.push_back({6.0, 4.0, 1.0, 1.0, 1.0});
  demand.classes.push_back({3.0, 8.0, 2.0, 1.0, 1.0});
  demand.classes.push_back({2.0, 2.0, 1.5, 0.8, 1.0});
  const alloc::RelaxationTemplate tmpl(
      space.pooled_location_ids(game::Coalition::grand(6)).size(),
      demand.classes);

  SimplexOptions plain;
  plain.solver = SolverKind::kRevised;
  const std::vector<double> reference = warm_chain_values(space, tmpl, plain);

  VerifyOptions vopts;
  vopts.level = VerifyLevel::kFull;
  SimplexOptions cascade_options;
  cascade_options.solver = SolverKind::kRevised;
  verify::CertifyingObserver observer(vopts, cascade_options);
  SimplexOptions observed = plain;
  observed.observer = &observer;
  const std::vector<double> certified =
      warm_chain_values(space, tmpl, observed);

  const auto stats = observer.stats();
  EXPECT_GE(stats.solves, (std::uint64_t{1} << 6) - 1);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.unchecked, 0u);
  EXPECT_EQ(stats.certified, stats.solves);

  ASSERT_EQ(reference.size(), certified.size());
  for (std::size_t k = 0; k < reference.size(); ++k) {
    EXPECT_EQ(reference[k], certified[k]) << "link " << k;
  }
}

// ---------------------------------------------------------------------
// ComputeBudget clock pinning.

// The deadline clock must be monotonic: a wall-clock jump (NTP step,
// suspend/resume) must never fire a deadline early or push it out. The
// pin is structural — ComputeBudget::Clock is steady_clock by type, and
// the member static_assert makes any drift back to a wall clock a
// compile error — which is the only jump-proof guarantee a test can
// give (steady_clock cannot be jumped from user space).
static_assert(
    std::is_same_v<runtime::ComputeBudget::Clock, std::chrono::steady_clock>,
    "deadlines must be measured on the monotonic clock");
static_assert(runtime::ComputeBudget::Clock::is_steady);

TEST(BudgetClock, DeadlineTripsOnSteadyTime) {
  const auto budget = runtime::ComputeBudget::with_deadline_ms(5.0);
  const auto start = runtime::ComputeBudget::Clock::now();
  while (budget.charge()) {
    if (runtime::ComputeBudget::Clock::now() - start >
        std::chrono::seconds(10)) {
      FAIL() << "deadline never tripped";
    }
  }
  EXPECT_EQ(budget.stop_reason(), runtime::StopReason::kDeadline);
}

TEST(BudgetClock, FarDeadlineSurvivesWork) {
  const auto budget = runtime::ComputeBudget::with_deadline_ms(1e9);
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(budget.charge());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.stop_reason(), runtime::StopReason::kNone);
}

// ---------------------------------------------------------------------
// CLI wiring.

TEST(VerifyCli, LevelStringsRoundTrip) {
  VerifyLevel level = VerifyLevel::kFull;
  EXPECT_TRUE(verify::verify_level_from_string("off", level));
  EXPECT_EQ(level, VerifyLevel::kOff);
  EXPECT_TRUE(verify::verify_level_from_string("cheap", level));
  EXPECT_EQ(level, VerifyLevel::kCheap);
  EXPECT_TRUE(verify::verify_level_from_string("full", level));
  EXPECT_EQ(level, VerifyLevel::kFull);
  EXPECT_FALSE(verify::verify_level_from_string("paranoid", level));
  EXPECT_STREQ(verify::to_string(VerifyLevel::kCheap), "cheap");
}

constexpr const char* kCliConfig = R"(
[facility]
name = A
locations = 4
units = 2

[facility]
name = B
locations = 3

[demand]
count = 3
min_locations = 2
)";

TEST(VerifyCli, DefaultOutputByteIdentical) {
  const auto config = io::Config::parse_string(kCliConfig);
  const std::string base = cli::run_report(config);
  cli::ReportOptions off;  // verify defaults to kOff
  EXPECT_EQ(cli::run_report(config, off), base);
}

TEST(VerifyCli, VerifySectionAppears) {
  const auto config = io::Config::parse_string(kCliConfig);
  const std::string base = cli::run_report(config);
  cli::ReportOptions opts;
  opts.verify = VerifyLevel::kCheap;
  const std::string cheap = cli::run_report(config, opts);
  EXPECT_NE(cheap.find("Verification"), std::string::npos);
  EXPECT_NE(cheap.find("level: cheap"), std::string::npos);
  // The report body before the Verification section is unchanged.
  EXPECT_EQ(cheap.compare(0, base.size(), base), 0);

  opts.verify = VerifyLevel::kFull;
  const std::string full = cli::run_report(config, opts);
  EXPECT_NE(full.find("lp solves:"), std::string::npos);
  EXPECT_EQ(full.find("UNCERTIFIED"), std::string::npos);
}

TEST(VerifyCli, ResilientPathCarriesVerification) {
  const auto config = io::Config::parse_string(kCliConfig);
  cli::ReportOptions opts;
  opts.deadline_ms = 60000.0;
  opts.verify = VerifyLevel::kFull;
  const std::string report = cli::run_report(config, opts);
  EXPECT_NE(report.find("Resilience"), std::string::npos);
  EXPECT_NE(report.find("Verification"), std::string::npos);
  EXPECT_NE(report.find("level: full"), std::string::npos);
}

}  // namespace
}  // namespace fedshare
