#include "verify/certificates.hpp"

#include <algorithm>
#include <cmath>

namespace fedshare::verify {

namespace {

// Accumulates the largest scaled residual and remembers the first
// violation past tolerance.
struct Checker {
  double tolerance;
  double scale;
  double max_residual = 0.0;
  bool ok = true;
  std::string detail;

  // Records a residual that should be ~0.
  void near_zero(double r, const char* what, std::size_t index) {
    const double v = std::abs(r) / scale;
    max_residual = std::max(max_residual, v);
    if (v > tolerance && ok) {
      ok = false;
      detail = std::string(what) + " at index " + std::to_string(index) +
               " (residual " + std::to_string(v) + ")";
    }
  }
  // Records a quantity that should be >= 0 (violation is its negative
  // part).
  void non_negative(double r, const char* what, std::size_t index) {
    near_zero(std::min(r, 0.0), what, index);
  }
  // Records a quantity that must be strictly positive (separation /
  // improvement margins).
  void positive(double r, const char* what) {
    if (r / scale <= tolerance && ok) {
      ok = false;
      detail = std::string(what) + " not strictly positive (" +
               std::to_string(r / scale) + ")";
    }
  }
};

double problem_scale(const lp::Problem& problem) {
  double s = 1.0;
  for (double c : problem.objective()) s = std::max(s, std::abs(c));
  for (const auto& con : problem.constraints()) {
    s = std::max(s, std::abs(con.rhs));
    for (double a : con.coefficients) s = std::max(s, std::abs(a));
  }
  return s;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

CertificateReport check_optimal(const lp::Problem& problem,
                                const lp::Solution& sol, double tolerance) {
  CertificateReport report;
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  if (sol.x.size() != n || sol.duals.size() != m) return report;  // unchecked
  report.checked = true;
  Checker ck{tolerance, problem_scale(problem)};

  const bool maximize = problem.sense() == lp::Objective::kMaximize;
  // `flip` maps the documented kMaximize sign conventions to kMinimize
  // by negating every inequality-side quantity.
  const double flip = maximize ? 1.0 : -1.0;

  // Primal feasibility: bounds and constraints.
  for (std::size_t j = 0; j < n; ++j) {
    if (!problem.is_free(j)) ck.non_negative(sol.x[j], "primal bound", j);
  }
  std::vector<double> slack(m, 0.0);  // b_i - a_i^T x
  for (std::size_t i = 0; i < m; ++i) {
    const auto& con = problem.constraints()[i];
    slack[i] = con.rhs - dot(con.coefficients, sol.x);
    switch (con.relation) {
      case lp::Relation::kLessEqual:
        ck.non_negative(slack[i], "primal row", i);
        break;
      case lp::Relation::kGreaterEqual:
        ck.non_negative(-slack[i], "primal row", i);
        break;
      case lp::Relation::kEqual:
        ck.near_zero(slack[i], "primal row", i);
        break;
    }
  }

  // Dual feasibility: multiplier signs per relation, reduced-cost signs
  // per variable, both flipped for minimization.
  for (std::size_t i = 0; i < m; ++i) {
    const double y = flip * sol.duals[i];
    switch (problem.constraints()[i].relation) {
      case lp::Relation::kLessEqual:
        ck.non_negative(y, "dual sign", i);
        break;
      case lp::Relation::kGreaterEqual:
        ck.non_negative(-y, "dual sign", i);
        break;
      case lp::Relation::kEqual:
        break;
    }
    // Complementary slackness: y_i != 0 requires a tight row.
    ck.near_zero(sol.duals[i] * slack[i] / ck.scale, "complementary slackness",
                 i);
  }
  for (std::size_t j = 0; j < n; ++j) {
    double yta = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      yta += sol.duals[i] * problem.constraints()[i].coefficients[j];
    }
    const double rc = problem.objective()[j] - yta;
    if (problem.is_free(j)) {
      ck.near_zero(rc, "free reduced cost", j);
    } else {
      ck.non_negative(-flip * rc, "reduced cost sign", j);
      // Complementary slackness on the variable side.
      ck.near_zero(rc * sol.x[j] / ck.scale, "reduced cost slackness", j);
    }
  }

  // Vanishing duality gap (with the reported objective as a consistency
  // check on the engine's own arithmetic).
  const double ctx = dot(problem.objective(), sol.x);
  double ytb = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    ytb += sol.duals[i] * problem.constraints()[i].rhs;
  }
  ck.near_zero(ctx - ytb, "duality gap", 0);
  ck.near_zero(ctx - sol.objective, "objective mismatch", 0);

  report.valid = ck.ok;
  report.max_residual = ck.max_residual;
  report.detail = std::move(ck.detail);
  return report;
}

CertificateReport check_infeasible(const lp::Problem& problem,
                                   const lp::Solution& sol, double tolerance) {
  CertificateReport report;
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  if (sol.farkas.size() != m) return report;
  report.checked = true;
  Checker ck{tolerance, problem_scale(problem)};

  double ytb = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double y = sol.farkas[i];
    switch (problem.constraints()[i].relation) {
      case lp::Relation::kLessEqual:
        ck.non_negative(-y, "farkas sign", i);
        break;
      case lp::Relation::kGreaterEqual:
        ck.non_negative(y, "farkas sign", i);
        break;
      case lp::Relation::kEqual:
        break;
    }
    ytb += y * problem.constraints()[i].rhs;
  }
  for (std::size_t j = 0; j < n; ++j) {
    double yta = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      yta += sol.farkas[i] * problem.constraints()[i].coefficients[j];
    }
    if (problem.is_free(j)) {
      ck.near_zero(yta, "farkas free column", j);
    } else {
      ck.non_negative(-yta, "farkas column", j);
    }
  }
  ck.positive(ytb, "farkas separation");

  report.valid = ck.ok;
  report.max_residual = ck.max_residual;
  report.detail = std::move(ck.detail);
  return report;
}

CertificateReport check_unbounded(const lp::Problem& problem,
                                  const lp::Solution& sol, double tolerance) {
  CertificateReport report;
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  if (sol.ray.size() != n) return report;
  report.checked = true;
  Checker ck{tolerance, problem_scale(problem)};

  for (std::size_t j = 0; j < n; ++j) {
    if (!problem.is_free(j)) ck.non_negative(sol.ray[j], "ray bound", j);
  }
  for (std::size_t i = 0; i < m; ++i) {
    const auto& con = problem.constraints()[i];
    const double ad = dot(con.coefficients, sol.ray);
    switch (con.relation) {
      case lp::Relation::kLessEqual:
        ck.non_negative(-ad, "ray row", i);
        break;
      case lp::Relation::kGreaterEqual:
        ck.non_negative(ad, "ray row", i);
        break;
      case lp::Relation::kEqual:
        ck.near_zero(ad, "ray row", i);
        break;
    }
  }
  const double cd = dot(problem.objective(), sol.ray);
  ck.positive(problem.sense() == lp::Objective::kMaximize ? cd : -cd,
              "ray improvement");

  report.valid = ck.ok;
  report.max_residual = ck.max_residual;
  report.detail = std::move(ck.detail);
  return report;
}

}  // namespace

const char* to_string(VerifyLevel level) noexcept {
  switch (level) {
    case VerifyLevel::kOff: return "off";
    case VerifyLevel::kCheap: return "cheap";
    case VerifyLevel::kFull: return "full";
  }
  return "?";
}

bool verify_level_from_string(const std::string& name,
                              VerifyLevel& out) noexcept {
  if (name == "off") {
    out = VerifyLevel::kOff;
  } else if (name == "cheap") {
    out = VerifyLevel::kCheap;
  } else if (name == "full") {
    out = VerifyLevel::kFull;
  } else {
    return false;
  }
  return true;
}

CertificateReport check_lp(const lp::Problem& problem,
                           const lp::Solution& solution, double tolerance) {
  switch (solution.status) {
    case lp::SolveStatus::kOptimal:
      return check_optimal(problem, solution, tolerance);
    case lp::SolveStatus::kInfeasible:
      return check_infeasible(problem, solution, tolerance);
    case lp::SolveStatus::kUnbounded:
      return check_unbounded(problem, solution, tolerance);
    case lp::SolveStatus::kIterationLimit:
    case lp::SolveStatus::kBudgetExhausted:
      break;  // no certificate to check; unverified by construction
  }
  return {};
}

}  // namespace fedshare::verify
