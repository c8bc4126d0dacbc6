#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "lp/matrix.hpp"
#include "lp/revised_simplex.hpp"

namespace fedshare::lp {

namespace {

// Internal tableau: rows = constraints, columns = structural variables
// (free variables split into x+ - x-), then slack/surplus, then artificial
// variables, then the right-hand side as the final column.
struct Tableau {
  Matrix body;                  // m x (total_cols + 1)
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
// A satisfied equality is substituted out through a free coefficient
// only above this times the row's largest original coefficient; a row
// with nothing left above it has reduced to 0 = 0.
constexpr double kPivotFloor = 1e-9;

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

// The equalities the start satisfies, substituted out before the
// tableau is built. Each such row, in order, is reduced against the
// rows already used and solved for the free, not yet eliminated
// variable with its largest coefficient; the rows already used are
// updated too (Gauss-Jordan). Each stored row then holds 1 on its
// pivot and 0 on every other pivot, and reads pivot + sum_kept w_j d_j
// = 0 in the shifted coordinates (its rhs is taken as met). Only these
// few rows are stored, one after another in `rows`: reduce() applies
// them to any other row.
struct Substitution {
  std::size_t n = 0;                      // variables, the row length
  std::vector<double> rows;               // eliminated rows, pivot order
  std::vector<std::size_t> source;        // each one's constraint index
  std::vector<std::size_t> pivot;         // each one's variable
  std::vector<char> eliminated;           // per variable
  std::vector<char> kept;                 // per row: enters the tableau
  std::vector<double> objective;          // reduced against `rows`

  [[nodiscard]] std::size_t size() const noexcept { return pivot.size(); }
  [[nodiscard]] const double* row(std::size_t e) const noexcept {
    return rows.data() + e * n;
  }

  // `a` less a[pivot] times each stored row: 0 on every pivot column.
  void reduce(const std::vector<double>& a, std::vector<double>& out) const {
    out.assign(a.begin(), a.end());
    for (std::size_t e = 0; e < size(); ++e) {
      const double f = a[pivot[e]];
      if (f == 0.0) continue;
      const double* w = row(e);
      for (std::size_t j = 0; j < out.size(); ++j) out[j] -= f * w[j];
    }
    for (const std::size_t v : pivot) out[v] = 0.0;
  }
};

// Fills `s` (every field overwritten) for `problem` at the shifted rhs;
// `w` is scratch.
void substitute(const Problem& problem, const std::vector<double>& shifted,
                Substitution& s, std::vector<double>& w) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  s.n = n;
  s.rows.clear();
  s.source.clear();
  s.pivot.clear();
  s.eliminated.assign(n, 0);
  s.kept.assign(m, 1);
  for (std::size_t r = 0; r < m; ++r) {
    const auto& c = problem.constraints()[r];
    if (c.relation != Relation::kEqual ||
        std::abs(shifted[r]) > kStartSlack * std::max(1.0, std::abs(c.rhs))) {
      continue;
    }
    double scale = 0.0;
    for (const double a : c.coefficients) scale = std::max(scale, std::abs(a));
    const double floor = kPivotFloor * scale;
    s.reduce(c.coefficients, w);
    std::size_t v = n;
    double best = floor;
    double largest = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      largest = std::max(largest, std::abs(w[j]));
      if (problem.is_free(j) && s.eliminated[j] == 0 &&
          std::abs(w[j]) > best) {
        best = std::abs(w[j]);
        v = j;
      }
    }
    if (v == n) {
      // Nothing free to solve for: the row keeps an artificial, unless it
      // has reduced to 0 = 0 and is dropped (its multiplier is 0).
      if (largest <= floor) s.kept[r] = 0;
      continue;
    }
    const double inv = 1.0 / w[v];
    for (double& x : w) x *= inv;
    w[v] = 1.0;
    for (std::size_t e = 0; e < s.size(); ++e) {
      double* row = s.rows.data() + e * n;
      const double f = row[v];
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) row[j] -= f * w[j];
      row[v] = 0.0;
    }
    s.rows.insert(s.rows.end(), w.begin(), w.end());
    s.source.push_back(r);
    s.pivot.push_back(v);
    s.eliminated[v] = 1;
    s.kept[r] = 0;
  }
  s.reduce(problem.objective(), s.objective);
}

// Fills each eliminated variable of the direction `d` from its row:
// d_pivot = -sum over kept columns of w_j d_j.
void back_substitute(const Substitution& s, std::vector<double>& d) {
  for (std::size_t e = 0; e < s.size(); ++e) {
    const double* w = s.row(e);
    double sum = 0.0;
    for (std::size_t j = 0; j < d.size(); ++j) {
      if (s.eliminated[j] == 0) sum += w[j] * d[j];
    }
    d[s.pivot[e]] = -sum;
  }
}

// Completes the multipliers `y` (set on the tableau's rows, 0 on the
// rest) with those of the eliminated rows, so that c_v = y^T A_v on every
// eliminated column v: solves y_E A_EV = c_V - y_K A_KV on the original
// coefficients, with c = 0 for a Farkas ray (`objective` null). Every
// other column's y^T A_j is then the reduced problem's. `a` is scratch.
void complete_multipliers(const Problem& problem, const Substitution& s,
                          const std::vector<double>* objective,
                          std::vector<double>& y, Matrix& a) {
  const std::size_t k = s.size();
  if (k == 0) return;
  const auto& cons = problem.constraints();
  // Equation i is column pivot[i]; unknown j is y[source[j]]. The sum
  // over every row takes y_K, as y is still 0 on the eliminated rows.
  a.assign(k, k + 1, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t v = s.pivot[i];
    double rhs = objective != nullptr ? (*objective)[v] : 0.0;
    for (std::size_t r = 0; r < cons.size(); ++r) {
      rhs -= y[r] * cons[r].coefficients[v];
    }
    for (std::size_t j = 0; j < k; ++j) {
      a(i, j) = cons[s.source[j]].coefficients[v];
    }
    a(i, k) = rhs;
  }
  // Gaussian elimination with partial pivoting, then back-substitution.
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t p = col;
    for (std::size_t i = col + 1; i < k; ++i) {
      if (std::abs(a(i, col)) > std::abs(a(p, col))) p = i;
    }
    a.swap_rows(col, p);
    for (std::size_t i = col + 1; i < k; ++i) {
      const double f = a(i, col) / a(col, col);
      if (f != 0.0) a.add_scaled_row(i, col, -f);
    }
  }
  for (std::size_t i = k; i-- > 0;) {
    double v = a(i, k);
    for (std::size_t j = i + 1; j < k; ++j) v -= a(i, j) * y[s.source[j]];
    y[s.source[i]] = v / a(i, i);
  }
}

}  // namespace

// Every buffer solve_dense fills, reused from solve to solve: each is
// overwritten (assign, clear) before it is read, so a solve through a
// used workspace sees what a fresh one would.
struct DenseWorkspace::Buffers {
  std::vector<double> shifted;  // each row's rhs in shifted coordinates
  Substitution sub;
  std::vector<double> scratch;  // substitute()'s and the tableau's rows
  std::vector<std::size_t> source;  // tableau row -> constraint
  std::vector<RowForm> forms;
  std::vector<std::size_t> pos_col;
  std::vector<std::size_t> neg_col;
  Tableau t;
  std::vector<double> row_slack_sign;
  std::vector<std::size_t> row_slack;
  std::vector<std::size_t> row_art;
  std::vector<double> phase1;
  std::vector<double> phase2;
  std::vector<double> column;  // structural columns' values or steps
  Matrix square;               // complete_multipliers' system
};

DenseWorkspace::DenseWorkspace() : buffers_(std::make_unique<Buffers>()) {}
DenseWorkspace::~DenseWorkspace() = default;

namespace {

// `start`, when non-null, holds one entry per variable; the free ones
// shift the tableau's coordinates (x_v = start_v + d_v). A cold solve
// starts at the origin.
Solution solve_dense(const Problem& problem, const SimplexOptions& options,
                     const std::vector<double>* start,
                     DenseWorkspace::Buffers& ws) {
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();

  // Each row's rhs in the shifted coordinates.
  std::vector<double>& shifted = ws.shifted;
  shifted.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    const auto& c = problem.constraints()[r];
    shifted[r] = c.rhs;
    if (start != nullptr) {
      for (std::size_t v = 0; v < n; ++v) {
        if (problem.is_free(v)) shifted[r] -= c.coefficients[v] * (*start)[v];
      }
    }
  }
  substitute(problem, shifted, ws.sub, ws.scratch);
  const Substitution& sub = ws.sub;

  // The tableau's rows are the kept rows; `source` maps each back.
  std::vector<std::size_t>& source = ws.source;
  std::vector<RowForm>& forms = ws.forms;
  source.clear();
  forms.clear();
  for (std::size_t r = 0; r < m; ++r) {
    if (sub.kept[r] == 0) continue;
    source.push_back(r);
    forms.push_back(row_form(problem.constraints()[r], shifted[r]));
  }
  const std::size_t mk = source.size();

  // Map kept variables to structural columns; free variables get a
  // second (negated) column.
  std::vector<std::size_t>& pos_col = ws.pos_col;
  std::vector<std::size_t>& neg_col = ws.neg_col;
  pos_col.assign(n, SIZE_MAX);
  neg_col.assign(n, SIZE_MAX);
  std::size_t structural = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (sub.eliminated[v] != 0) continue;
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

  Tableau& t = ws.t;
  t.total_cols = structural + num_slack + num_artificial;
  t.artificial_begin = structural + num_slack;
  t.body.assign(mk, t.total_cols + 1, 0.0);
  t.basis.assign(mk, 0);

  std::size_t slack_cursor = structural;
  std::size_t art_cursor = t.artificial_begin;
  // Per-row bookkeeping for certificate extraction: which slack/surplus
  // and artificial column (if any) belongs to each tableau row — those
  // columns' reduced costs are the simplex multipliers in normalized row
  // space.
  std::vector<double>& row_slack_sign = ws.row_slack_sign;
  std::vector<std::size_t>& row_slack = ws.row_slack;
  std::vector<std::size_t>& row_art = ws.row_art;
  row_slack_sign.assign(mk, 1.0);
  row_slack.assign(mk, SIZE_MAX);
  row_art.assign(mk, SIZE_MAX);

  std::vector<double>& reduced = ws.scratch;
  for (std::size_t r = 0; r < mk; ++r) {
    sub.reduce(problem.constraints()[source[r]].coefficients, reduced);
    const double sign = forms[r].sign;
    for (std::size_t v = 0; v < n; ++v) {
      if (pos_col[v] == SIZE_MAX) continue;
      const double a = sign * reduced[v];
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
        break;
      case Relation::kEqual:
        t.body(r, art_cursor) = 1.0;
        row_art[r] = art_cursor;
        t.basis[r] = art_cursor++;
        break;
    }
  }

  Solution result;
  std::uint64_t pivots = 0;

  // Phase 1: minimize the sum of artificials. As a "driven non-negative"
  // cost row: start with +1 on each artificial, then subtract the rows in
  // which artificials are basic so reduced costs of the basis are zero.
  if (num_artificial > 0) {
    std::vector<double>& phase1 = ws.phase1;
    phase1.assign(t.total_cols + 1, 0.0);
    for (std::size_t j = t.artificial_begin; j < t.total_cols; ++j) {
      phase1[j] = 1.0;
    }
    for (std::size_t r = 0; r < mk; ++r) {
      if (row_art[r] != SIZE_MAX) {
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
      // attained infeasibility, so y_r = sign_r * w_r witnesses
      // infeasibility in original constraint space. w is read off the
      // phase-1 reduced-cost row: 1 - cost at the row's artificial, or
      // -slack_sign * cost at its slack when the row never had one. The
      // eliminated rows' entries then cancel their columns.
      result.farkas.assign(m, 0.0);
      for (std::size_t r = 0; r < mk; ++r) {
        const double w = row_art[r] != SIZE_MAX
                             ? 1.0 - phase1[row_art[r]]
                             : -row_slack_sign[r] * phase1[row_slack[r]];
        result.farkas[source[r]] = forms[r].sign * w;
      }
      complete_multipliers(problem, sub, nullptr, result.farkas, ws.square);
      double ytb = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        ytb += result.farkas[r] * problem.constraints()[r].rhs;
      }
      // Guard against numerical junk: a Farkas ray must strictly
      // separate; otherwise report infeasibility without a certificate.
      if (!(ytb > options.tolerance)) result.farkas.clear();
      return result;
    }
    // Pivot any artificial still in the basis out (degenerate rows), or
    // leave it at value zero if its row is all-zero over real columns.
    for (std::size_t r = 0; r < mk; ++r) {
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
        for (std::size_t rr = 0; rr < mk; ++rr) {
          if (rr == r) continue;
          const double f = t.body(rr, enter);
          if (f != 0.0) t.body.add_scaled_row(rr, r, -f);
        }
        t.basis[r] = enter;
      }
    }
  }

  // Phase 2: the substituted objective. Build the canonical reduced-cost
  // row for maximization (cost[j] = -c_j, then zero out basic columns).
  const double sense = problem.sense() == Objective::kMaximize ? 1.0 : -1.0;
  std::vector<double>& phase2 = ws.phase2;
  phase2.assign(t.total_cols + 1, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (pos_col[v] == SIZE_MAX) continue;
    const double c = sense * sub.objective[v];
    phase2[pos_col[v]] = -c;
    if (neg_col[v] != SIZE_MAX) phase2[neg_col[v]] = c;
  }
  for (std::size_t r = 0; r < mk; ++r) {
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

  // The structural columns' values (or, when unbounded, their steps
  // along the ray) recombined per kept variable, the eliminated ones
  // filled in from their rows.
  std::vector<double>& column = ws.column;
  column.assign(structural, 0.0);
  const auto recombine = [&] {
    std::vector<double> d(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      if (pos_col[v] == SIZE_MAX) continue;
      d[v] = column[pos_col[v]];
      if (neg_col[v] != SIZE_MAX) d[v] -= column[neg_col[v]];
    }
    back_substitute(sub, d);
    return d;
  };

  if (s2 != SolveStatus::kOptimal) {
    result.status = s2;
    if (s2 == SolveStatus::kUnbounded && unbounded_enter < t.total_cols) {
      // Recession direction from the entering column: the entering
      // variable steps +1 while each basic variable moves by minus its
      // tableau coefficient.
      if (unbounded_enter < structural) column[unbounded_enter] = 1.0;
      for (std::size_t r = 0; r < mk; ++r) {
        if (t.basis[r] < structural) {
          column[t.basis[r]] = -t.body(r, unbounded_enter);
        }
      }
      result.ray = recombine();
      double cd = 0.0;
      for (std::size_t v = 0; v < n; ++v) {
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
  for (std::size_t r = 0; r < mk; ++r) {
    if (t.basis[r] < structural) {
      column[t.basis[r]] = t.body(r, t.total_cols);
    }
  }
  result.x = recombine();
  double obj = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (start != nullptr && problem.is_free(v)) result.x[v] += (*start)[v];
    obj += problem.objective()[v] * result.x[v];
  }
  result.objective = obj;
  result.status = SolveStatus::kOptimal;

  // Dual certificate from the phase-2 reduced-cost row. The multiplier
  // of normalized row r is the reduced cost of its artificial column
  // (cost zero, identity column), or slack_sign * the reduced cost of
  // its slack. Mapping back to original coordinates multiplies by the
  // rhs-normalisation sign and by the sense exposure so that the
  // conventions documented on lp::Solution hold for either sense. The
  // eliminated rows' multipliers then close their columns' reduced costs.
  result.duals.assign(m, 0.0);
  for (std::size_t r = 0; r < mk; ++r) {
    const double w = row_art[r] != SIZE_MAX
                         ? phase2[row_art[r]]
                         : row_slack_sign[r] * phase2[row_slack[r]];
    result.duals[source[r]] = sense * forms[r].sign * w;
  }
  complete_multipliers(problem, sub, &problem.objective(), result.duals,
                       ws.square);
  return result;
}

// Engine dispatch; `start` and `workspace` are ignored by the revised
// engine, and a dense solve without a workspace gets a fresh one.
Solution dispatch(const Problem& problem, const SimplexOptions& options,
                  const std::vector<double>* start,
                  DenseWorkspace* workspace) {
  if (options.solver == SolverKind::kRevised) {
    // The revised engine notifies the observer itself (it also owns the
    // warm-started entry points that never pass through this wrapper).
    return solve_revised(problem, options);
  }
  std::optional<DenseWorkspace> own;
  if (workspace == nullptr) workspace = &own.emplace();
  Solution result =
      solve_dense(problem, options, start, workspace->buffers());
  if (options.observer != nullptr) {
    options.observer->on_solve(problem, result);
  }
  return result;
}

void check_start(const Problem& problem, const std::vector<double>& start) {
  if (start.size() != problem.num_variables()) {
    throw std::invalid_argument(
        "lp::solve: start needs one entry per variable");
  }
  for (std::size_t v = 0; v < start.size(); ++v) {
    if (problem.is_free(v) && !std::isfinite(start[v])) {
      throw std::invalid_argument("lp::solve: start must be finite");
    }
  }
}

}  // namespace

Solution solve(const Problem& problem, const SimplexOptions& options) {
  return dispatch(problem, options, nullptr, nullptr);
}

Solution solve(const Problem& problem, const SimplexOptions& options,
               const std::vector<double>& start) {
  check_start(problem, start);
  return dispatch(problem, options, &start, nullptr);
}

Solution solve(const Problem& problem, const SimplexOptions& options,
               const std::vector<double>& start, DenseWorkspace& workspace) {
  check_start(problem, start);
  return dispatch(problem, options, &start, &workspace);
}

}  // namespace fedshare::lp
