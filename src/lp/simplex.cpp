#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "lp/matrix.hpp"
#include "lp/revised_simplex.hpp"

namespace fedshare::lp {

namespace {

// Internal tableau: rows = constraints, columns = structural variables
// (free variables split into x+ - x-), then slack/surplus, then artificial
// variables, then the right-hand side as the final column.
struct Tableau {
  Matrix body;                  // m x (total_cols + 1)
  std::vector<double> cost;     // phase-2 reduced-cost row, size total_cols+1
  std::vector<std::size_t> basis;  // basic variable per row
  std::size_t total_cols = 0;
  std::size_t artificial_begin = 0;
};

// One simplex phase: pivot on `cost` until no improving column remains.
// Uses Bland's rule (smallest eligible index) which precludes cycling.
// On kUnbounded, `unbounded_col` (when non-null) receives the entering
// column whose ratio test found no blocking row — the recession
// direction behind Solution::ray.
SolveStatus run_phase(Tableau& t, std::vector<double>& cost,
                      const SimplexOptions& opt,
                      bool forbid_artificial_entering,
                      std::uint64_t& pivots,
                      std::size_t* unbounded_col = nullptr) {
  const std::size_t m = t.body.rows();
  const std::size_t rhs_col = t.total_cols;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    if (opt.budget && !opt.budget->charge()) {
      return SolveStatus::kBudgetExhausted;
    }
    // Entering column: smallest index with a positive reduced profit
    // (we maximize, so we look for cost[j] < -tol after canonicalizing
    // cost as "row to be driven non-negative").
    std::size_t enter = t.total_cols;
    const std::size_t limit =
        forbid_artificial_entering ? t.artificial_begin : t.total_cols;
    for (std::size_t j = 0; j < limit; ++j) {
      if (cost[j] < -opt.tolerance) {
        enter = j;
        break;
      }
    }
    if (enter == t.total_cols) return SolveStatus::kOptimal;

    // Leaving row: minimum ratio test, ties broken by smallest basis index
    // (Bland).
    std::size_t leave = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < m; ++r) {
      const double a = t.body(r, enter);
      if (a > opt.tolerance) {
        const double ratio = t.body(r, rhs_col) / a;
        if (ratio < best_ratio - opt.tolerance ||
            (std::abs(ratio - best_ratio) <= opt.tolerance && leave < m &&
             t.basis[r] < t.basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave == m) {
      if (unbounded_col != nullptr) *unbounded_col = enter;
      return SolveStatus::kUnbounded;
    }
    ++pivots;

    // Pivot.
    const double pivot = t.body(leave, enter);
    t.body.scale_row(leave, 1.0 / pivot);
    for (std::size_t r = 0; r < m; ++r) {
      if (r == leave) continue;
      const double f = t.body(r, enter);
      if (f != 0.0) t.body.add_scaled_row(r, leave, -f);
    }
    const double cf = cost[enter];
    if (cf != 0.0) {
      const double* prow = t.body.row_data(leave);
      for (std::size_t c = 0; c <= t.total_cols; ++c) {
        cost[c] -= cf * prow[c];
      }
    }
    t.basis[leave] = enter;
  }
  return SolveStatus::kIterationLimit;
}

}  // namespace

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
    case SolveStatus::kBudgetExhausted: return "budget-exhausted";
  }
  return "unknown";
}

const char* to_string(SolverKind kind) noexcept {
  switch (kind) {
    case SolverKind::kDense: return "dense";
    case SolverKind::kRevised: return "revised";
  }
  return "unknown";
}

bool solver_kind_from_string(const std::string& name,
                             SolverKind& out) noexcept {
  if (name == "dense") {
    out = SolverKind::kDense;
    return true;
  }
  if (name == "revised") {
    out = SolverKind::kRevised;
    return true;
  }
  return false;
}

namespace {

// A row the start violates by at most this, times max(1, |rhs|), counts
// as satisfied. Rows tight at the start carry residuals of a few ulps
// either way; without the allowance half of them would take artificials.
constexpr double kStartSlack = 1e-12;

// How one row enters the tableau: the sign that makes its rhs
// non-negative, the relation after that flip, and the rhs itself.
struct RowForm {
  double sign = 1.0;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

// `shifted_rhs` is the row's rhs minus its activity at the start. A
// <= row with a non-negative rhs, or a >= row with a non-positive one,
// holds at the start and becomes a <= row with its slack basic; so does
// a row violated by at most kStartSlack * max(1, |rhs|), its rhs clamped
// to 0. Every other row keeps (or flips to) a >= or == relation and gets
// an artificial.
RowForm row_form(const Constraint& c, double shifted_rhs) {
  const double allowance = kStartSlack * std::max(1.0, std::abs(c.rhs));
  RowForm f;
  f.relation = c.relation;
  switch (c.relation) {
    case Relation::kLessEqual:
      if (shifted_rhs < -allowance) {
        f.sign = -1.0;
        f.relation = Relation::kGreaterEqual;
      }
      break;
    case Relation::kGreaterEqual:
      if (shifted_rhs <= allowance) {
        f.sign = -1.0;
        f.relation = Relation::kLessEqual;
      }
      break;
    case Relation::kEqual:
      if (shifted_rhs < 0.0) f.sign = -1.0;
      break;
  }
  f.rhs = std::max(0.0, f.sign * shifted_rhs);
  return f;
}

// `start`, when non-null, holds one entry per variable; the free ones
// shift the tableau's coordinates (x_v = start_v + d_v).
Solution solve_dense(const Problem& problem, const SimplexOptions& options,
                     const std::vector<double>* start) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();

  // Each row's form in the shifted coordinates.
  std::vector<RowForm> forms(m);
  for (std::size_t r = 0; r < m; ++r) {
    const auto& c = problem.constraints()[r];
    double shifted = c.rhs;
    if (start != nullptr) {
      double activity = 0.0;
      for (std::size_t v = 0; v < n; ++v) {
        if (problem.is_free(v)) activity += c.coefficients[v] * (*start)[v];
      }
      shifted -= activity;
    }
    forms[r] = row_form(c, shifted);
  }

  // Map original variables to structural columns; free variables get a
  // second (negated) column.
  std::vector<std::size_t> pos_col(n), neg_col(n, SIZE_MAX);
  std::size_t structural = 0;
  for (std::size_t v = 0; v < n; ++v) {
    pos_col[v] = structural++;
    if (problem.is_free(v)) neg_col[v] = structural++;
  }

  // Count slack and artificial columns.
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  for (const RowForm& f : forms) {
    // After sign-normalisation (rhs >= 0), <= gets a slack; >= gets a
    // surplus plus an artificial; == gets an artificial.
    switch (f.relation) {
      case Relation::kLessEqual: ++num_slack; break;
      case Relation::kGreaterEqual: ++num_slack; ++num_artificial; break;
      case Relation::kEqual: ++num_artificial; break;
    }
  }

  Tableau t;
  t.total_cols = structural + num_slack + num_artificial;
  t.artificial_begin = structural + num_slack;
  t.body = Matrix(m == 0 ? 1 : m, t.total_cols + 1, 0.0);
  t.basis.assign(m, 0);

  // Handle the degenerate no-constraint case directly.
  if (m == 0) {
    Solution s;
    // Unbounded iff any objective coefficient pushes a variable up.
    const double sense = problem.sense() == Objective::kMaximize ? 1.0 : -1.0;
    for (std::size_t v = 0; v < n; ++v) {
      const double c = sense * problem.objective()[v];
      if (c > 0.0 || (problem.is_free(v) && c < 0.0)) {
        s.status = SolveStatus::kUnbounded;
        s.ray.assign(n, 0.0);
        s.ray[v] = c > 0.0 ? 1.0 : -1.0;
        return s;
      }
    }
    s.status = SolveStatus::kOptimal;
    s.objective = 0.0;
    s.x.assign(n, 0.0);
    return s;
  }

  std::size_t slack_cursor = structural;
  std::size_t art_cursor = t.artificial_begin;
  std::vector<bool> has_artificial_row(m, false);
  // Per-row bookkeeping for certificate extraction: the sign applied
  // during rhs normalisation, and which slack/surplus and artificial
  // column (if any) belongs to each row — those columns' reduced costs
  // are the simplex multipliers in normalized row space.
  std::vector<double> row_sign(m, 1.0);
  std::vector<double> row_slack_sign(m, 1.0);
  std::vector<std::size_t> row_slack(m, SIZE_MAX);
  std::vector<std::size_t> row_art(m, SIZE_MAX);

  for (std::size_t r = 0; r < m; ++r) {
    const auto& c = problem.constraints()[r];
    const double sign = forms[r].sign;
    row_sign[r] = sign;
    for (std::size_t v = 0; v < n; ++v) {
      const double a = sign * c.coefficients[v];
      t.body(r, pos_col[v]) += a;
      if (neg_col[v] != SIZE_MAX) t.body(r, neg_col[v]) -= a;
    }
    t.body(r, t.total_cols) = forms[r].rhs;
    switch (forms[r].relation) {
      case Relation::kLessEqual:
        t.body(r, slack_cursor) = 1.0;
        row_slack[r] = slack_cursor;
        row_slack_sign[r] = 1.0;
        t.basis[r] = slack_cursor++;
        break;
      case Relation::kGreaterEqual:
        t.body(r, slack_cursor) = -1.0;
        row_slack[r] = slack_cursor;
        row_slack_sign[r] = -1.0;
        ++slack_cursor;
        t.body(r, art_cursor) = 1.0;
        row_art[r] = art_cursor;
        t.basis[r] = art_cursor++;
        has_artificial_row[r] = true;
        break;
      case Relation::kEqual:
        t.body(r, art_cursor) = 1.0;
        row_art[r] = art_cursor;
        t.basis[r] = art_cursor++;
        has_artificial_row[r] = true;
        break;
    }
  }

  Solution result;
  std::uint64_t pivots = 0;

  // Phase 1: minimize the sum of artificials. As a "driven non-negative"
  // cost row: start with +1 on each artificial, then subtract the rows in
  // which artificials are basic so reduced costs of the basis are zero.
  if (num_artificial > 0) {
    std::vector<double> phase1(t.total_cols + 1, 0.0);
    for (std::size_t j = t.artificial_begin; j < t.total_cols; ++j) {
      phase1[j] = 1.0;
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (has_artificial_row[r]) {
        const double* row = t.body.row_data(r);
        for (std::size_t cidx = 0; cidx <= t.total_cols; ++cidx) {
          phase1[cidx] -= row[cidx];
        }
      }
    }
    const SolveStatus s1 = run_phase(t, phase1, options, false, pivots);
    if (s1 == SolveStatus::kIterationLimit ||
        s1 == SolveStatus::kBudgetExhausted) {
      result.status = s1;
      result.pivots = pivots;
      return result;
    }
    // -phase1[rhs] is the attained sum of artificials.
    if (-phase1[t.total_cols] > 1e-6) {
      result.status = SolveStatus::kInfeasible;
      result.pivots = pivots;
      // Farkas certificate from the phase-1 duals. With w the optimal
      // multipliers of min sum(artificials) over the normalized rows,
      // w^T A' <= 0 column-wise while w^T b' equals the (positive)
      // attained infeasibility, so y_r = row_sign_r * w_r witnesses
      // infeasibility in original constraint space. w is read off the
      // phase-1 reduced-cost row: 1 - cost at the row's artificial, or
      // -slack_sign * cost at its slack when the row never had one.
      result.farkas.assign(m, 0.0);
      double ytb = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        const double w = row_art[r] != SIZE_MAX
                             ? 1.0 - phase1[row_art[r]]
                             : -row_slack_sign[r] * phase1[row_slack[r]];
        result.farkas[r] = row_sign[r] * w;
        ytb += result.farkas[r] * problem.constraints()[r].rhs;
      }
      // Guard against numerical junk: a Farkas ray must strictly
      // separate; otherwise report infeasibility without a certificate.
      if (!(ytb > options.tolerance)) result.farkas.clear();
      return result;
    }
    // Pivot any artificial still in the basis out (degenerate rows), or
    // leave it at value zero if its row is all-zero over real columns.
    for (std::size_t r = 0; r < m; ++r) {
      if (t.basis[r] >= t.artificial_begin) {
        std::size_t enter = t.total_cols;
        for (std::size_t j = 0; j < t.artificial_begin; ++j) {
          if (std::abs(t.body(r, j)) > options.tolerance) {
            enter = j;
            break;
          }
        }
        if (enter == t.total_cols) continue;  // redundant row
        const double pivot = t.body(r, enter);
        t.body.scale_row(r, 1.0 / pivot);
        for (std::size_t rr = 0; rr < m; ++rr) {
          if (rr == r) continue;
          const double f = t.body(rr, enter);
          if (f != 0.0) t.body.add_scaled_row(rr, r, -f);
        }
        t.basis[r] = enter;
      }
    }
  }

  // Phase 2: the real objective. Build the canonical reduced-cost row for
  // maximization (cost[j] = -c_j, then zero out basic columns).
  const double sense = problem.sense() == Objective::kMaximize ? 1.0 : -1.0;
  std::vector<double> phase2(t.total_cols + 1, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    const double c = sense * problem.objective()[v];
    phase2[pos_col[v]] = -c;
    if (neg_col[v] != SIZE_MAX) phase2[neg_col[v]] = c;
  }
  for (std::size_t r = 0; r < m; ++r) {
    const double cb = -phase2[t.basis[r]];
    if (cb != 0.0) {
      const double* row = t.body.row_data(r);
      for (std::size_t cidx = 0; cidx <= t.total_cols; ++cidx) {
        phase2[cidx] += cb * row[cidx];
      }
    }
  }
  std::size_t unbounded_enter = t.total_cols;
  const SolveStatus s2 =
      run_phase(t, phase2, options, true, pivots, &unbounded_enter);
  result.pivots = pivots;
  if (s2 != SolveStatus::kOptimal) {
    result.status = s2;
    if (s2 == SolveStatus::kUnbounded && unbounded_enter < t.total_cols) {
      // Recession direction from the entering column: the entering
      // variable steps +1 while each basic variable moves by minus its
      // tableau coefficient; recombining the split columns yields a ray
      // over the original variables.
      std::vector<double> d(structural, 0.0);
      if (unbounded_enter < structural) d[unbounded_enter] = 1.0;
      for (std::size_t r = 0; r < m; ++r) {
        if (t.basis[r] < structural) {
          d[t.basis[r]] = -t.body(r, unbounded_enter);
        }
      }
      result.ray.assign(n, 0.0);
      double cd = 0.0;
      for (std::size_t v = 0; v < n; ++v) {
        result.ray[v] = d[pos_col[v]];
        if (neg_col[v] != SIZE_MAX) result.ray[v] -= d[neg_col[v]];
        cd += problem.objective()[v] * result.ray[v];
      }
      const bool improves = problem.sense() == Objective::kMaximize
                                ? cd > options.tolerance
                                : cd < -options.tolerance;
      if (!improves) result.ray.clear();
    }
    return result;
  }

  // Extract the solution.
  std::vector<double> structural_values(structural, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (t.basis[r] < structural) {
      structural_values[t.basis[r]] = t.body(r, t.total_cols);
    }
  }
  result.x.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    result.x[v] = structural_values[pos_col[v]];
    if (neg_col[v] != SIZE_MAX) {
      result.x[v] -= structural_values[neg_col[v]];
      if (start != nullptr) result.x[v] += (*start)[v];
    }
  }
  double obj = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    obj += problem.objective()[v] * result.x[v];
  }
  result.objective = obj;
  result.status = SolveStatus::kOptimal;

  // Dual certificate from the phase-2 reduced-cost row. The multiplier
  // of normalized row r is the reduced cost of its artificial column
  // (cost zero, identity column), or slack_sign * the reduced cost of
  // its slack. Mapping back to original coordinates multiplies by the
  // rhs-normalisation sign and by the sense exposure so that the
  // conventions documented on lp::Solution hold for either sense.
  result.duals.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const double w = row_art[r] != SIZE_MAX
                         ? phase2[row_art[r]]
                         : row_slack_sign[r] * phase2[row_slack[r]];
    result.duals[r] = sense * row_sign[r] * w;
  }
  return result;
}

// Engine dispatch; `start` is ignored by the revised engine.
Solution dispatch(const Problem& problem, const SimplexOptions& options,
                  const std::vector<double>* start) {
  if (options.solver == SolverKind::kRevised) {
    // The revised engine notifies the observer itself (it also owns the
    // warm-started entry points that never pass through this wrapper).
    return solve_revised(problem, options);
  }
  Solution result = solve_dense(problem, options, start);
  if (options.observer != nullptr) {
    options.observer->on_solve(problem, result);
  }
  return result;
}

}  // namespace

Solution solve(const Problem& problem, const SimplexOptions& options) {
  return dispatch(problem, options, nullptr);
}

Solution solve(const Problem& problem, const SimplexOptions& options,
               const std::vector<double>& start) {
  if (start.size() != problem.num_variables()) {
    throw std::invalid_argument(
        "lp::solve: start needs one entry per variable");
  }
  for (std::size_t v = 0; v < start.size(); ++v) {
    if (problem.is_free(v) && !std::isfinite(start[v])) {
      throw std::invalid_argument("lp::solve: start must be finite");
    }
  }
  return dispatch(problem, options, &start);
}

}  // namespace fedshare::lp
