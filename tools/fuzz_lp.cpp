// fuzz_lp — differential fuzzer for the simplex engines.
//
// Generates random bounded LPs on a small coefficient grid and solves
// each three ways: dense two-phase tableau, revised simplex from a cold
// basis, and revised simplex warm-started from the optimal basis of an
// rhs-perturbed neighbour. A second, started leg builds an LP over
// mostly free variables around a random point — rows exactly tight
// there (up to the rounding of their rhs), rows violated by less than
// 1e-12 relative, rows violated outright and rows with slack, and in a
// third of the cases several tight == rows, some linearly dependent —
// and solves it dense from that point, dense cold and revised. Any
// disagreement — status mismatch, objective divergence, or a
// certificate (verify/certificates.hpp) that fails on a claimed answer
// — is a bug in at least one engine, and the harness prints a
// self-contained reproduction and exits non-zero. Every case's dense
// started solve (and, on the first leg, a dense solve from the origin)
// runs once more through one DenseWorkspace shared by the whole run,
// which last held another case's shape; it must agree with the fresh
// solve bit for bit (status, objective, pivots, x and certificates).
//
// Usage: fuzz_lp [--seconds N] [--cases N] [--seed S]
//   --seconds N   wall-clock budget (default 10; 0 = no time limit)
//   --cases N     max cases (default unlimited; 0 = unlimited)
//   --seed S      base RNG seed (default 1); case k uses seed S + k
//
// tools/check.sh runs `fuzz_lp --seconds 10` as a smoke gate.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "verify/certificates.hpp"

namespace {

using fedshare::lp::DenseWorkspace;
using fedshare::lp::Objective;
using fedshare::lp::Problem;
using fedshare::lp::Relation;
using fedshare::lp::SimplexOptions;
using fedshare::lp::Solution;
using fedshare::lp::SolveStatus;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform integer in [0, bound).
std::uint64_t pick(std::uint64_t& rng, std::uint64_t bound) {
  return splitmix64(rng) % bound;
}

// Coefficients live on the grid {-4, -3.5, ..., 4}: small enough that
// both engines are numerically comfortable, rich enough (halves, mixed
// signs, zeros) to reach degenerate and infeasible corners.
double grid(std::uint64_t& rng) {
  return (static_cast<double>(pick(rng, 17)) - 8.0) / 2.0;
}

struct Case {
  Problem problem;
  // The rhs-perturbed neighbour solved first to seed the warm start.
  std::vector<double> neighbour_rhs;
};

// An LP built around `point` for the started leg; see make_started_case.
struct StartedCase {
  Problem problem;
  std::vector<double> point;
};

// Variables are free but for about one in six; the point's coordinates
// are grid values plus thirds, so a row's activity there is rounded and
// an "exactly tight" rhs sits within an ulp or two of it. Each row is
// tight, short of its relation by about 1e-13 relative (inside the dense
// engine's allowance), violated by 0.5-2, or slack by 0.5-2.
//
// A third of the cases are equality-rich: every variable is free, and
// the rows open with 1-3 == rows tight at the point followed by 1-2 more
// that scale or combine earlier ones. The started solve then substitutes
// variables out through the tight rows, drops the rows that reduce to
// 0 = 0, and completes the eliminated rows' multipliers in its duals and
// Farkas rays and their components in its unbounded rays.
StartedCase make_started_case(std::uint64_t seed) {
  std::uint64_t rng = seed ^ 0x5741525445440000ULL;
  const std::size_t n = 1 + pick(rng, 6);
  const std::size_t m = 1 + pick(rng, 7);
  const Objective sense =
      pick(rng, 2) == 0 ? Objective::kMaximize : Objective::kMinimize;
  const bool equality_rich = pick(rng, 3) == 0;
  StartedCase c{Problem(n, sense), {}};
  for (std::size_t j = 0; j < n; ++j) {
    c.problem.set_objective_coefficient(j, grid(rng));
    if (equality_rich || pick(rng, 6) != 0) c.problem.set_free(j);
    c.point.push_back(grid(rng) + static_cast<double>(pick(rng, 3)) / 3.0);
  }
  // Summed last to first, so its rounding differs from the engine's.
  const auto activity_at_point = [&](const std::vector<double>& coef) {
    double activity = 0.0;
    for (std::size_t j = n; j-- > 0;) activity += coef[j] * c.point[j];
    return activity;
  };
  if (equality_rich) {
    std::vector<std::vector<double>> tight(1 + pick(rng, 3));
    for (auto& coef : tight) {
      coef.resize(n);
      for (auto& v : coef) v = grid(rng);
    }
    // Dependent rows: a multiple of one earlier row (a duplicate when the
    // factor is 1, 0 = 0 when it is 0), or the sum of two.
    for (std::size_t k = 1 + pick(rng, 2); k > 0; --k) {
      const std::vector<double> a = tight[pick(rng, tight.size())];
      const std::vector<double> b = tight[pick(rng, tight.size())];
      const double alpha = pick(rng, 3) == 0 ? 1.0 : grid(rng);
      const double beta = pick(rng, 2) == 0 ? 0.0 : 1.0;
      std::vector<double> coef(n);
      for (std::size_t j = 0; j < n; ++j) coef[j] = alpha * a[j] + beta * b[j];
      tight.push_back(std::move(coef));
    }
    for (auto& coef : tight) {
      const double rhs = activity_at_point(coef);
      c.problem.add_constraint(std::move(coef), Relation::kEqual, rhs);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> coef(n);
    for (auto& v : coef) v = grid(rng);
    const Relation rel = static_cast<Relation>(pick(rng, 3));
    const double activity = activity_at_point(coef);
    // +1 moves the rhs to where the point violates the row (an == row
    // counts as a >= row here), -1 to where it has slack.
    const double violate = rel == Relation::kLessEqual ? -1.0 : 1.0;
    double rhs = activity;
    switch (pick(rng, 4)) {
      case 0: break;  // tight
      case 1:
        rhs += violate * 1e-13 * std::max(1.0, std::abs(activity));
        break;
      case 2:
        rhs += violate * (0.5 + static_cast<double>(pick(rng, 4)) / 2.0);
        break;
      default:
        rhs -= violate * (0.5 + static_cast<double>(pick(rng, 4)) / 2.0);
        break;
    }
    c.problem.add_constraint(std::move(coef), rel, rhs);
  }
  // Half the cases box every variable around the point, so that more
  // of them have an optimum; the rest stay free to be unbounded.
  if (pick(rng, 2) == 0) {
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<double> unit(n, 0.0);
      unit[j] = 1.0;
      const double half_width = 1.0 + static_cast<double>(pick(rng, 4));
      c.problem.add_constraint(unit, Relation::kLessEqual,
                               c.point[j] + half_width);
      c.problem.add_constraint(std::move(unit), Relation::kGreaterEqual,
                               c.point[j] - half_width);
    }
  }
  return c;
}

Case make_case(std::uint64_t seed) {
  std::uint64_t rng = seed;
  const std::size_t n = 1 + pick(rng, 6);
  const std::size_t m = 1 + pick(rng, 6);
  const Objective sense =
      pick(rng, 2) == 0 ? Objective::kMaximize : Objective::kMinimize;
  Problem p(n, sense);
  for (std::size_t j = 0; j < n; ++j) {
    p.set_objective_coefficient(j, grid(rng));
    if (pick(rng, 5) == 0) p.set_free(j);
  }
  Case c{std::move(p), {}};
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> coef(n);
    for (auto& v : coef) v = grid(rng);
    const Relation rel = static_cast<Relation>(pick(rng, 3));
    const double rhs = grid(rng);
    c.neighbour_rhs.push_back(rhs + (static_cast<double>(pick(rng, 5)) - 2.0));
    c.problem.add_constraint(std::move(coef), rel, rhs);
  }
  return c;
}

void dump(const Problem& p, std::ostream& out) {
  out << (p.sense() == Objective::kMaximize ? "maximize" : "minimize");
  for (double cj : p.objective()) out << ' ' << cj;
  out << '\n';
  for (const auto& con : p.constraints()) {
    out << "  ";
    for (double a : con.coefficients) out << a << ' ';
    out << (con.relation == Relation::kLessEqual
                ? "<="
                : con.relation == Relation::kEqual ? "==" : ">=")
        << ' ' << con.rhs << '\n';
  }
  for (std::size_t j = 0; j < p.num_variables(); ++j) {
    if (p.is_free(j)) out << "  free x" << j << '\n';
  }
}

const char* status_name(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    default: return "limit";
  }
}

// A status the harness can compare: limits (iteration/budget) carry no
// claim, so cases hitting one are skipped, not failed.
bool comparable(SolveStatus s) {
  return s == SolveStatus::kOptimal || s == SolveStatus::kInfeasible ||
         s == SolveStatus::kUnbounded;
}

struct Failure {
  std::string what;
};

// Checks one claimed answer's certificate. Empty certificate vectors
// mean "no witness produced", which the engines are allowed to do in
// rare corners — only a *failing* witness is a bug.
bool certificate_ok(const Problem& p, const Solution& s, std::string& why) {
  const auto report = fedshare::verify::check_lp(p, s, 1e-7);
  if (report.checked && !report.valid) {
    why = report.detail + " (residual " + std::to_string(report.max_residual) +
          ")";
    return false;
  }
  return true;
}

// Objective agreement, relative to the largest objective coefficient.
bool objectives_agree(const Problem& p, double a, double b) {
  double scale = 1.0;
  for (double cj : p.objective()) scale = std::max(scale, std::abs(cj));
  return std::abs(a - b) <= 1e-6 * scale * 8.0;
}

using Answer = std::pair<const char*, const Solution*>;

// Every answer, the oracle's included, must carry a valid certificate
// and agree with the oracle, answers[0], on status and objective.
bool answers_agree(const Problem& p, std::initializer_list<Answer> answers,
                   Failure& failure) {
  const auto& [oracle_name, oracle] = *answers.begin();
  for (const auto& [name, s] : answers) {
    std::string why;
    if (!certificate_ok(p, *s, why)) {
      failure.what = std::string(name) + " certificate invalid: " + why;
      return false;
    }
    if (s->status != oracle->status) {
      failure.what = std::string("status mismatch: ") + oracle_name + "=" +
                     status_name(oracle->status) + " " + name + "=" +
                     status_name(s->status);
      return false;
    }
    if (oracle->optimal() &&
        !objectives_agree(p, s->objective, oracle->objective)) {
      failure.what = std::string("objective mismatch: ") + oracle_name +
                     "=" + std::to_string(oracle->objective) + " " + name +
                     "=" + std::to_string(s->objective);
      return false;
    }
  }
  return true;
}

// Whether two solves agree bit for bit: status, objective, pivots, x
// and every certificate.
bool bitwise_equal(const Solution& a, const Solution& b) {
  const auto same = [](const std::vector<double>& u,
                       const std::vector<double>& v) {
    return u.size() == v.size() &&
           std::equal(u.begin(), u.end(), v.begin(), [](double x, double y) {
             return std::bit_cast<std::uint64_t>(x) ==
                    std::bit_cast<std::uint64_t>(y);
           });
  };
  return a.status == b.status && a.pivots == b.pivots &&
         std::bit_cast<std::uint64_t>(a.objective) ==
             std::bit_cast<std::uint64_t>(b.objective) &&
         same(a.x, b.x) && same(a.duals, b.duals) &&
         same(a.farkas, b.farkas) && same(a.ray, b.ray);
}

// The workspace leg: `problem` solved from `point` through the workspace
// every case of the run shares (so it last held another case's shape)
// must be bitwise the solve through a fresh one, `fresh`.
bool workspace_agrees(const Problem& problem, const std::vector<double>& point,
                      const Solution& fresh, DenseWorkspace& workspace,
                      Failure& failure) {
  const Solution reused = fedshare::lp::solve(problem, {}, point, workspace);
  if (bitwise_equal(reused, fresh)) return true;
  failure.what = "a solve through the shared workspace differs from a "
                 "fresh solve";
  return false;
}

// The started leg: dense from the case's point and revised, both against
// a dense cold solve, and the started solve again through `workspace`.
bool run_started_case(std::uint64_t seed, DenseWorkspace& workspace,
                      Failure& failure) {
  const StartedCase c = make_started_case(seed);
  const Solution cold = fedshare::lp::solve(c.problem);
  const Solution started = fedshare::lp::solve(c.problem, {}, c.point);
  if (!workspace_agrees(c.problem, c.point, started, workspace, failure)) {
    return false;
  }
  SimplexOptions revised_opts;
  revised_opts.solver = fedshare::lp::SolverKind::kRevised;
  const Solution revised = fedshare::lp::solve(c.problem, revised_opts);
  if (!comparable(cold.status) || !comparable(started.status) ||
      !comparable(revised.status)) {
    return true;
  }
  return answers_agree(c.problem,
                       {{"dense cold", &cold},
                        {"dense started", &started},
                        {"revised", &revised}},
                       failure);
}

bool run_case(std::uint64_t seed, DenseWorkspace& workspace,
              Failure& failure) {
  const Case c = make_case(seed);
  SimplexOptions dense_opts;
  dense_opts.solver = fedshare::lp::SolverKind::kDense;
  const Solution dense = fedshare::lp::solve(c.problem, dense_opts);
  {
    const std::vector<double> origin(c.problem.num_variables(), 0.0);
    const Solution fresh = fedshare::lp::solve(c.problem, {}, origin);
    if (!workspace_agrees(c.problem, origin, fresh, workspace, failure)) {
      return false;
    }
  }

  fedshare::lp::RevisedSimplex cold(c.problem);
  const Solution revised = cold.solve();

  // Warm start: solve the rhs-perturbed neighbour cold, then patch back
  // to the real rhs and re-solve from the neighbour's optimal basis.
  fedshare::lp::RevisedSimplex warm_engine(c.problem);
  for (std::size_t i = 0; i < c.neighbour_rhs.size(); ++i) {
    warm_engine.set_constraint_rhs(i, c.neighbour_rhs[i]);
  }
  (void)warm_engine.solve();
  const fedshare::lp::Basis basis = warm_engine.basis();
  for (std::size_t i = 0; i < c.neighbour_rhs.size(); ++i) {
    warm_engine.set_constraint_rhs(i, c.problem.constraints()[i].rhs);
  }
  const Solution warm = warm_engine.solve_from_basis(basis);

  if (!comparable(dense.status) || !comparable(revised.status) ||
      !comparable(warm.status)) {
    return true;  // a limit tripped; nothing to compare
  }
  return answers_agree(
      c.problem, {{"dense", &dense}, {"revised", &revised}, {"warm", &warm}},
      failure);
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 10.0;
  std::uint64_t max_cases = 0;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> double {
      if (i + 1 >= argc) {
        std::cerr << "fuzz_lp: " << flag << " needs a value\n";
        std::exit(2);
      }
      return std::strtod(argv[++i], nullptr);
    };
    if (arg == "--seconds") {
      seconds = value("--seconds");
    } else if (arg == "--cases") {
      max_cases = static_cast<std::uint64_t>(value("--cases"));
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(value("--seed"));
    } else {
      std::cerr << "usage: fuzz_lp [--seconds N] [--cases N] [--seed S]\n";
      return 2;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Shared by every case of the run, cold and started legs alike.
  DenseWorkspace workspace;
  std::uint64_t cases = 0;
  while ((max_cases == 0 || cases < max_cases) &&
         (seconds <= 0.0 || elapsed() < seconds)) {
    Failure failure;
    const std::uint64_t case_seed = seed + cases;
    const bool classic_ok = run_case(case_seed, workspace, failure);
    if (!classic_ok || !run_started_case(case_seed, workspace, failure)) {
      std::cerr << "fuzz_lp: FAILED at case " << cases << " (seed "
                << case_seed << "): " << failure.what << "\n";
      std::cerr << "reproduce with: fuzz_lp --seed " << case_seed
                << " --cases 1 --seconds 0\n";
      if (classic_ok) {
        const StartedCase c = make_started_case(case_seed);
        std::cerr << "(started leg; the start point is";
        for (double v : c.point) std::cerr << ' ' << v;
        std::cerr << ")\n";
        dump(c.problem, std::cerr);
        return 1;
      }
      dump(make_case(case_seed).problem, std::cerr);
      return 1;
    }
    ++cases;
  }
  std::cout << "fuzz_lp: " << cases << " cases, 3 engines each plus a "
            << "started dense solve and two shared-workspace re-solves, "
            << "no disagreements\n";
  return 0;
}
