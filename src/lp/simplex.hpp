// Two-phase primal simplex solver over a dense tableau.
//
// Scope: the LPs in this library are small (core membership, least-core,
// nucleolus steps, allocation relaxations — tens of rows/columns), so a
// dense tableau with Bland's anti-cycling rule is both simple and robust.
// A dense solve may be given a start point (see the solve overload):
// rows the start satisfies then begin with their slacks basic, the
// equalities it satisfies are substituted out, and phase 1 only has to
// repair the rest. A chain of solves may share one DenseWorkspace, which
// the caller owns, so the tableau is not re-allocated for every LP.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lp/problem.hpp"
#include "runtime/budget.hpp"

namespace fedshare::lp {

/// Solver outcome. kBudgetExhausted means the attached ComputeBudget
/// (deadline / node cap / cancellation) tripped mid-solve.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kBudgetExhausted,
};

/// Human-readable status name (for logs and test messages).
[[nodiscard]] const char* to_string(SolveStatus status) noexcept;

/// Which simplex engine solves the LP. kDense is the original two-phase
/// tableau (robust, O(m*cols) per pivot, started from a point rather
/// than a basis); kRevised is
/// the bounded-variable revised simplex in lp/revised_simplex.hpp (LU
/// basis + eta file, warm-startable). Both implement the same Problem
/// semantics and agree on status and objective to solver tolerance.
/// The code picks the engine by LP shape, not the user: the small
/// nucleolus and least-core LPs run on started dense solves, and the
/// serve layer's LP-relaxation bound, thousands of location rows
/// re-solved every epoch, on a warm RevisedSimplex.
enum class SolverKind { kDense, kRevised };

/// Human-readable solver name ("dense" / "revised"), and its inverse
/// (returns false on unknown names) for decoding checkpoints.
[[nodiscard]] const char* to_string(SolverKind kind) noexcept;
[[nodiscard]] bool solver_kind_from_string(const std::string& name,
                                           SolverKind& out) noexcept;

/// Result of a solve. `x` holds values for the problem's original
/// variables (free variables already recombined); it is empty unless
/// status == kOptimal.
///
/// Certificates: alongside the answer, both engines emit the evidence
/// that the answer is right, in the coordinates of the *original*
/// Problem (one multiplier per constraint, one component per variable):
///
///  * kOptimal    -> `duals` (may be paired with `x` by verify::check_lp
///    to confirm primal feasibility, dual feasibility, complementary
///    slackness, and a vanishing duality gap). Convention: for a
///    kMaximize problem, duals[i] >= 0 on <= rows, <= 0 on >= rows,
///    free on == rows, and reduced costs c_j - y^T A_j are <= 0 for
///    every non-free variable and == 0 for free/basic ones; kMinimize
///    flips every inequality.
///  * kInfeasible -> `farkas`, a Farkas ray y over constraints with
///    y_i <= 0 on <= rows, y_i >= 0 on >= rows, free on == rows,
///    (A^T y)_j <= 0 for non-free variables, == 0 for free ones, and
///    y^T b > 0 — so y^T(Ax) <= 0 <  y^T b for every x >= 0, proving no
///    feasible point exists.
///  * kUnbounded  -> `ray`, a recession direction d with d_j >= 0 for
///    non-free variables, A d respecting every relation at rhs 0, and
///    c^T d improving the objective without bound.
///
/// A certificate vector may be empty when the engine could not produce
/// one (e.g. infeasibility detected against API-declared bounds that
/// have no constraint-space witness); verify treats a missing
/// certificate as unverified, not as wrong.
struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
  /// Simplex iterations spent on this solve (pivots plus bound flips).
  /// Comparable across the dense and revised engines; the perf bench
  /// aggregates these to quantify warm-start savings.
  std::uint64_t pivots = 0;
  /// Dual values, one per constraint (kOptimal only; see above).
  std::vector<double> duals;
  /// Farkas infeasibility ray, one per constraint (kInfeasible only).
  std::vector<double> farkas;
  /// Unbounded recession direction, one per variable (kUnbounded only).
  std::vector<double> ray;

  [[nodiscard]] bool optimal() const noexcept {
    return status == SolveStatus::kOptimal;
  }
};

/// Post-solve hook. When SimplexOptions::observer is set, every engine
/// solve (dense, revised cold, revised warm — including each link of a
/// warm-started chain) reports its finished Solution together with the
/// Problem it answered, and the observer may repair or replace the
/// solution in place. This is how src/verify attaches certificate
/// checking, iterative refinement, and the cross-engine escalation
/// cascade to call sites it does not own (nucleolus rounds, relaxation
/// bounds) without those layers depending on verify.
///
/// Implementations must be thread-safe: solver instances on different
/// threads may share one observer pointer.
class SolveObserver {
 public:
  virtual ~SolveObserver() = default;
  /// `problem` reflects every patch applied before the solve; `solution`
  /// is the engine's answer and may be overwritten with a repaired one.
  virtual void on_solve(const Problem& problem, Solution& solution) = 0;
};

/// Solver knobs.
struct SimplexOptions {
  int max_iterations = 20000;  ///< per phase
  double tolerance = 1e-9;     ///< pivot / feasibility tolerance
  /// Optional cooperative budget, charged one unit per pivot. When it
  /// trips the solve returns kBudgetExhausted instead of spinning until
  /// max_iterations. Not owned; must outlive the solve call.
  const runtime::ComputeBudget* budget = nullptr;
  /// Engine selection; solve() dispatches on this. No user path sets
  /// kRevised: tests, benches and the verify cascade use it to
  /// cross-check the dense engine with a cold revised solve.
  SolverKind solver = SolverKind::kDense;
  /// Optional post-solve hook (see SolveObserver). Not owned; must
  /// outlive every solve. nullptr (the default) is zero-overhead.
  SolveObserver* observer = nullptr;
};

/// Solves `problem` with the engine selected by `options.solver`
/// (two-phase dense tableau by default).
///
/// The dense tableau starts from the origin after sign-normalising each
/// row: a row whose rhs is on its slack side (<= rows with rhs >= 0,
/// >= rows with rhs <= 0) begins with its slack or surplus basic, and
/// only the others get a phase-1 artificial. A row violated at the
/// origin by at most 1e-12 * max(1, |rhs|) counts as satisfied, its rhs
/// clamped to the slack side.
///
/// An == row satisfied that way takes no artificial either: the free,
/// not yet eliminated variable with its largest coefficient is
/// substituted out through it (Gauss-Jordan on the rows and the
/// objective) before the tableau is built, unless that coefficient is at
/// most 1e-9 of the row's largest. Such a row then keeps its artificial
/// when it still has a non-free coefficient, and is dropped with dual 0
/// when it has reduced to 0 = 0 (a duplicate or combination of rows
/// already used). Certificates keep their meaning in the original
/// problem: the eliminated variables' x and ray entries come from
/// back-substitution, and the eliminated rows' duals and Farkas entries
/// from the square system that zeroes their columns' reduced costs.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {});

/// Solves `problem` from the point `start` (one entry per variable).
/// The dense tableau works in coordinates shifted to the start on the
/// free variables, x_j = start_j + d_j, so the rows `start` satisfies
/// (to the tolerance above) need no artificial, and the equalities among
/// them are substituted out as above; entries of non-free variables are
/// ignored. Any start gives the same status and optimum as
/// solve(problem, options) — a poor one only costs phase-1 pivots —
/// and x, the objective and every certificate are reported in the
/// original coordinates (the shift leaves the duals unchanged). The
/// observer sees `problem` itself. Under SolverKind::kRevised the start
/// is ignored: that engine warm-starts from bases (RevisedSimplex).
/// Throws std::invalid_argument when `start` has the wrong size or a
/// non-finite entry on a free variable.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options,
                             const std::vector<double>& start);

/// The dense engine's working memory: the tableau, its cost rows, the
/// substitution of satisfied equalities and the per-row bookkeeping.
/// A solve without one builds all of these afresh. A caller that runs a
/// chain of solves owns one workspace for the whole chain and passes it
/// to each, so the buffers are allocated once, at the chain's largest
/// shape, and freed when the caller drops the workspace; the nucleolus
/// keeps one per Maschler chain (core/nucleolus.cpp). The workspace is
/// deliberately never thread_local or global: a large chain's tableau
/// (a release pass on a near-additive n = 12 game can peak near 1 GB)
/// must not stay pinned to a pool thread that outlives the chain. Every
/// buffer is overwritten before it is read, so a solve through a used
/// workspace is bitwise the solve through a fresh one. One workspace
/// serves one solve at a time: it is not thread-safe.
class DenseWorkspace {
 public:
  DenseWorkspace();
  ~DenseWorkspace();
  DenseWorkspace(const DenseWorkspace&) = delete;
  DenseWorkspace& operator=(const DenseWorkspace&) = delete;

  /// The buffers themselves, defined in lp/simplex.cpp.
  struct Buffers;
  [[nodiscard]] Buffers& buffers() noexcept { return *buffers_; }

 private:
  std::unique_ptr<Buffers> buffers_;
};

/// solve(problem, options, start) with the dense engine's buffers taken
/// from `workspace` (ignored under SolverKind::kRevised): same status,
/// x, objective, pivots and certificates, bit for bit.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options,
                             const std::vector<double>& start,
                             DenseWorkspace& workspace);

}  // namespace fedshare::lp
