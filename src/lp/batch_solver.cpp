#include "lp/batch_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace fedshare::lp {

namespace {

// Mirrors of the revised-simplex feasibility tolerances. The fast-path
// predicates below must reach the *same* verdict as run_dual/run_primal
// would on the same state, so these values are load-bearing: they equal
// kFeasTol / kDualTol in revised_simplex.cpp.
constexpr double kFeasTol = 1e-7;
constexpr double kDualTol = 1e-7;

}  // namespace

BatchSolver::BatchSolver(const RevisedSimplex& prototype)
    : engine_(prototype) {}

void BatchSolver::add_constraint(const std::vector<double>& coefficients,
                                 Relation relation, double rhs) {
  engine_.add_constraint(coefficients, relation, rhs);
  frame_ok_ = false;
}

void BatchSolver::refresh_y() {
  const std::size_t m = engine_.num_rows_;
  y_.resize(m);
  for (std::size_t p = 0; p < m; ++p) {
    y_[p] = engine_.internal_cost(engine_.basic_[p]);
  }
  engine_.btran(y_);
  d_.resize(engine_.num_cols_);
  for (std::size_t j = 0; j < engine_.num_cols_; ++j) {
    d_[j] = engine_.internal_cost(j) - engine_.column_dot(j, y_);
  }
}

bool BatchSolver::primal_feasible() const {
  // Same comparison run_primal uses for its phase decision: a pass here
  // means the sequential solve would price phase-2 immediately.
  for (std::size_t p = 0; p < engine_.num_rows_; ++p) {
    const std::size_t col = engine_.basic_[p];
    const double xb = engine_.x_basic_[p];
    if (xb < engine_.lower_[col] - kFeasTol ||
        xb > engine_.upper_[col] + kFeasTol) {
      return false;
    }
  }
  return true;
}

bool BatchSolver::pricing_none() const {
  // Phase-2 pricing from run_primal with the cached reduced costs: true
  // iff no nonbasic column is eligible to enter, i.e. the sequential
  // solve would extract the optimum after zero pivots.
  const double price_tol = std::max(engine_.options_.tolerance, 1e-9);
  for (std::size_t j = 0; j < engine_.num_cols_; ++j) {
    if (engine_.status_[j] == VarStatus::kBasic || engine_.is_fixed(j)) {
      continue;
    }
    const double d = d_[j];
    switch (engine_.status_[j]) {
      case VarStatus::kAtLower:
        if (d < -price_tol) return false;
        break;
      case VarStatus::kAtUpper:
        if (d > price_tol) return false;
        break;
      default:
        if (std::abs(d) > price_tol) return false;
        break;
    }
  }
  return true;
}

bool BatchSolver::dual_feasible_from_d() const {
  // RevisedSimplex::dual_feasible against the cached reduced costs —
  // needed only to reproduce the sequential budget-charge sequence
  // (dual sweep charges one unit before discovering primal feasibility).
  for (std::size_t j = 0; j < engine_.num_cols_; ++j) {
    if (engine_.status_[j] == VarStatus::kBasic || engine_.is_fixed(j)) {
      continue;
    }
    const double d = d_[j];
    switch (engine_.status_[j]) {
      case VarStatus::kAtLower:
        if (d < -kDualTol) return false;
        break;
      case VarStatus::kAtUpper:
        if (d > kDualTol) return false;
        break;
      default:
        if (std::abs(d) > kDualTol) return false;
        break;
    }
  }
  return true;
}

void BatchSolver::rebuild_frame_from_current() {
  frame_ok_ = false;
  if (engine_.num_rows_ == 0 || !engine_.has_basis_) return;
  const Basis b = engine_.basis();
  if (!engine_.prepare()) return;
  engine_.adopt_statuses(b);  // idempotent on a post-solve status vector
  if (!engine_.factorize()) return;
  engine_.compute_basic_values();
  frame_ok_ = true;
}

Solution BatchSolver::solve_objective(const std::vector<double>& objective,
                                      const Basis& basis, Basis* basis_out) {
  for (std::size_t v = 0; v < objective.size(); ++v) {
    engine_.set_objective_coefficient(v, objective[v]);
  }
  Solution out;
  const bool fast_frame =
      frame_ok_ && !basis.empty() &&
      engine_.options_.max_iterations >= 1 &&
      basis.status.size() == engine_.num_cols_ &&
      basis.status == engine_.status_;
  if (!fast_frame) {
    // Full sequential path on the persistent engine — the exact state a
    // sequential probe chain would hold. Afterwards, rebuild the frame
    // (one prepare/adopt/factorize/FTRAN) so the *next* zero-pivot probe
    // rides the cache; the rebuild only replays state the preamble would
    // reconstruct anyway, so later solves are unaffected.
    out = basis.empty() ? engine_.solve() : engine_.solve_from_basis(basis);
    if (out.optimal()) {
      rebuild_frame_from_current();
    } else {
      frame_ok_ = false;
    }
    if (basis_out != nullptr) *basis_out = engine_.basis();
    return out;
  }

  // Cached frame: statuses match and rhs/bounds are untouched since the
  // frame was built, so prepare/adopt/factorize/FTRAN would reproduce
  // the cached state bitwise. Only y depends on the new objective.
  refresh_y();
  if (primal_feasible() && pricing_none()) {
    const runtime::ComputeBudget* budget = engine_.options_.budget;
    if (dual_feasible_from_d()) {
      if (budget != nullptr && !budget->charge()) {
        out.status = SolveStatus::kBudgetExhausted;
        out.pivots = 0;
        engine_.notify(out);
        return out;
      }
    }
    if (budget != nullptr && !budget->charge()) {
      out.status = SolveStatus::kBudgetExhausted;
      out.pivots = 0;
      engine_.notify(out);
      return out;
    }
    engine_.extract_core(y_, out, &d_);
    out.pivots = 0;
    engine_.notify(out);
    if (basis_out != nullptr) *basis_out = engine_.basis();
    return out;
  }

  // The new objective wants pivots: run the real engines from the cached
  // state (bitwise what the sequential preamble would have built).
  const std::uint64_t start = engine_.pivots_;
  if (engine_.dual_feasible()) {
    if (!engine_.run_dual(out)) {
      out.pivots = engine_.pivots_ - start;
      frame_ok_ = false;
      engine_.notify(out);
      if (basis_out != nullptr) *basis_out = engine_.basis();
      return out;
    }
  }
  engine_.run_primal(out);
  out.pivots = engine_.pivots_ - start;
  if (out.optimal()) {
    rebuild_frame_from_current();
  } else {
    frame_ok_ = false;
  }
  engine_.notify(out);
  if (basis_out != nullptr) *basis_out = engine_.basis();
  return out;
}

}  // namespace fedshare::lp
