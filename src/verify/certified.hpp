// Certified solves: check -> refine -> escalate.
//
// certified_solve() wraps an LP solve in the verification cascade. The
// primary engine answers; its certificate is checked (verify/
// certificates.hpp); a failing optimal is first polished by iterative
// refinement (verify/refine.hpp); and if the certificate still fails,
// the solve escalates across engines — revised from a cold basis, then
// the dense two-phase tableau from scratch — until a rung produces a
// validated answer. This extends the PR-1 fallback cascade from "the
// solver timed out" to "the solver gave a wrong answer": a corrupted
// warm basis, a stale eta file, or an injected fault is caught by the
// certificate and repaired by a slower, independent engine.
//
// CertifyingObserver packages the same cascade as an lp::SolveObserver,
// which is how --verify=full reaches solves buried inside the nucleolus
// rounds and the relaxation bounds: the observer re-checks (and, when
// needed, replaces) every solution those layers produce, without any of
// them depending on src/verify.
#pragma once

#include <cstdint>
#include <mutex>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "verify/certificates.hpp"

namespace fedshare::verify {

/// Outcome of a certified solve.
struct CertifiedSolve {
  lp::Solution solution;
  /// Which cascade rung produced `solution`.
  CascadeRung rung = CascadeRung::kPrimary;
  /// Certificate report for `solution` (reports the final rung).
  CertificateReport report;
};

/// Solves `problem` with `lp_options` (any observer on it is ignored —
/// the cascade must not recurse into itself), then certifies/escalates
/// per `verify_options`. The existing ComputeBudget on `lp_options` is
/// charged by every rung, so a deadline bounds the whole cascade.
[[nodiscard]] CertifiedSolve certified_solve(const lp::Problem& problem,
                                             const lp::SimplexOptions& lp_options,
                                             const VerifyOptions& verify_options);

/// Certifies an already-produced `primary` answer, escalating as needed.
/// This is the observer entry point: the engine already solved, so the
/// kPrimary rung only checks.
[[nodiscard]] CertifiedSolve certify_or_escalate(
    const lp::Problem& problem, lp::Solution primary,
    const lp::SimplexOptions& lp_options, const VerifyOptions& verify_options);

/// Thread-safe SolveObserver running the cascade on every reported
/// solve and tallying what happened. Attach via SimplexOptions::observer;
/// solvers on different threads may share one instance.
class CertifyingObserver final : public lp::SolveObserver {
 public:
  /// Aggregate tallies across all observed solves.
  struct Stats {
    std::uint64_t solves = 0;     ///< solutions reported to the observer
    std::uint64_t certified = 0;  ///< final certificate valid
    std::uint64_t unchecked = 0;  ///< no certificate to evaluate
    std::uint64_t refined = 0;    ///< answered by the refinement rung
    std::uint64_t escalated = 0;  ///< answered by a cold re-solve rung
    std::uint64_t dense_answers = 0;  ///< ... specifically the dense rung
    std::uint64_t failures = 0;   ///< exhausted the cascade, still invalid
    double worst_residual = 0.0;  ///< max residual among accepted answers
  };

  /// `lp_options`' observer field is ignored (the cascade never
  /// re-enters itself); its budget/tolerance/engine fields configure the
  /// escalation rungs.
  CertifyingObserver(VerifyOptions verify_options,
                     lp::SimplexOptions lp_options);

  void on_solve(const lp::Problem& problem, lp::Solution& solution) override;

  [[nodiscard]] Stats stats() const;

 private:
  VerifyOptions verify_options_;
  lp::SimplexOptions lp_options_;
  mutable std::mutex mutex_;
  Stats stats_;
};

}  // namespace fedshare::verify
