// Certificate checking for LP solves (the trust anchor of src/verify).
//
// Every quantity the pipeline reports — coalition values from the
// allocation relaxation, least-core epsilons, nucleolus rounds — flows
// through a simplex engine. check_lp() re-derives, from the Problem and
// the Solution alone, whether the claimed status is *provably* right:
//
//  * kOptimal    — primal feasibility, dual feasibility, complementary
//                  slackness, and a vanishing duality gap (weak duality
//                  makes the pair (x, y) a proof of optimality);
//  * kInfeasible — a Farkas ray y with sign-admissible multipliers,
//                  A^T y on the correct side of zero, and y^T b > 0;
//  * kUnbounded  — a recession direction d that stays feasible and
//                  improves the objective.
//
// The check is independent of either engine's internals: it touches only
// the public Problem/Solution contract, so one checker audits both the
// dense tableau and the revised simplex (and any future engine).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace fedshare::verify {

/// How much verification the pipeline performs.
///  * kOff   — no checks; byte-identical behaviour to a build without
///             src/verify (the default everywhere).
///  * kCheap — game-level audits (sampled monotonicity/superadditivity,
///             scheme efficiency, core residuals) but no per-solve
///             certificate checking.
///  * kFull  — kCheap plus a certificate check on every LP solve, with
///             iterative refinement and the cross-engine cascade
///             repairing any solve whose certificate fails.
enum class VerifyLevel { kOff, kCheap, kFull };

/// Human-readable level name ("off" / "cheap" / "full"), and its inverse
/// (returns false on unknown names) for CLI flag parsing.
[[nodiscard]] const char* to_string(VerifyLevel level) noexcept;
[[nodiscard]] bool verify_level_from_string(const std::string& name,
                                            VerifyLevel& out) noexcept;

/// Rungs of the verification cascade, in escalation order. kPrimary is
/// whatever engine produced the original answer; each later rung is
/// consulted only when every earlier rung's certificate failed.
enum class CascadeRung { kPrimary, kRefined, kRevisedCold, kDenseCold };

/// Knobs for the verification layer.
struct VerifyOptions {
  VerifyLevel level = VerifyLevel::kOff;
  /// Certificate residual tolerance (absolute, against unit-scale
  /// problems; residuals are scaled by max(1, |b|, |c|) internally).
  double tolerance = 1e-6;
  /// Iterative-refinement rounds attempted before escalating.
  int max_refine_rounds = 2;
  /// Coalition pairs sampled per game-audit property.
  std::size_t audit_samples = 64;
  std::uint64_t audit_seed = 0x5eedf00dULL;
  /// Test-only fault injection: invoked on the solution each cascade
  /// rung produces, *before* its certificate is checked — corrupting
  /// early rungs proves the cascade escalates and the late rung answers.
  std::function<void(lp::Solution&, CascadeRung)> fault_hook;
};

/// Outcome of checking one solution's certificate.
struct CertificateReport {
  /// A certificate was present and evaluated. False for statuses that
  /// carry none (iteration limit, budget exhaustion) and for solutions
  /// whose engine could not produce a witness (empty vectors).
  bool checked = false;
  /// The certificate passed every test at the requested tolerance.
  bool valid = false;
  /// Largest scaled residual seen across all tests (also populated for
  /// failing certificates — it is the quantity refinement drives down).
  double max_residual = 0.0;
  /// First failed test, for logs ("primal infeasible row 3", ...).
  std::string detail;
};

/// Validates `solution`'s certificate against `problem` (conventions on
/// lp::Solution). Pure function of its arguments; thread-safe.
[[nodiscard]] CertificateReport check_lp(const lp::Problem& problem,
                                         const lp::Solution& solution,
                                         double tolerance = 1e-6);

}  // namespace fedshare::verify
