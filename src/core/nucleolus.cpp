#include "core/nucleolus.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lp/simplex.hpp"

namespace fedshare::game {

namespace {

constexpr double kTol = 1e-7;
// A least-core dual above this marks its row tight in every optimum.
// Complementary slackness holds only up to the engine's dual-feasibility
// error, so the threshold is also kept 100x above options.tolerance.
constexpr double kDualTol = 1e-9;
constexpr double kDualTolMargin = 100.0;
// Elimination residue below this counts as linearly dependent. The rows
// are small integer vectors (0/1 masks, per-type counts), so dependent
// rows reduce to exact or near-exact zeros.
constexpr double kRankTol = 1e-9;
// Closure: a row outside the working set violated by more than this,
// times max(1, |V(N)|), joins it. Far below kTol, so a closed LP's
// optimum is the full LP's to within the 1e-12 * scale agreement the
// differential tests require, yet above the rounding of an excess.
constexpr double kSeparationTol = 1e-12;

// Dense formulation ceiling in excess rows, for the refusal message.
constexpr std::uint64_t kMaxDenseRows =
    (std::uint64_t{1} << kMaxDenseNucleolusPlayers) - 2;
// Orbit-row formulation ceiling. Generous: typed federations with n in
// the 20s sit at a few thousand orbit rows.
constexpr std::uint64_t kMaxOrbitRows = std::uint64_t{1} << 15;

// One probe LP over a shared, eps-pinned constraint set: maximizes
// `objective` through `solve(objective)`, which returns the optimum of
// the current row set. Runs to closure: `close(x)` appends the rows
// outside the working set that the optimum x violates and says whether
// it appended any, and the LP re-solves until none is violated. Counts
// every solve; returns the optimum, or nullopt when a solve failed.
template <typename Solve, typename Close>
std::optional<double> probe_max(Solve&& solve,
                                const std::vector<double>& objective,
                                NucleolusResult& out, Close&& close) {
  for (;;) {
    const lp::Solution sol = solve(objective);
    ++out.lps_solved;
    out.pivots += sol.pivots;
    if (!sol.optimal()) return std::nullopt;
    if (!close(sol.x)) return sol.objective;
  }
}

// Uniqueness probes: maximizes +x_v and -x_v for every share variable
// in `vars` (min x_v == -max -x_v) and reports whether each range is a
// point. `x_star` is the round's optimum, a feasible point, so a max
// above x*_v + kTol settles the question with one closed LP. Eps is
// pinned at the current level: later rounds only shrink the feasible
// set, so a unique x-projection here is final.
template <typename Solve, typename Close>
bool ranges_are_points(Solve&& solve, const std::vector<std::size_t>& vars,
                       const std::vector<double>& x_star,
                       NucleolusResult& out, Close&& close) {
  std::vector<double> obj;
  for (const std::size_t v : vars) {
    obj.assign(x_star.size() + 1, 0.0);
    obj[v] = 1.0;
    const std::optional<double> hi = probe_max(solve, obj, out, close);
    if (!hi.has_value() || *hi - x_star[v] > kTol) return false;
    obj[v] = -1.0;
    const std::optional<double> lo = probe_max(solve, obj, out, close);
    if (!lo.has_value() || *hi + *lo > kTol) return false;
  }
  return true;
}

// Running rank of the efficiency row plus the fixed excess rows over
// the share columns (eps dropped). Full rank means the fixed equalities
// alone pin the allocation to a point, so the +/- uniqueness probes
// would all report max == min and can be skipped.
class RankTracker {
 public:
  explicit RankTracker(std::size_t nv) : nv_(nv) {}

  void add(const std::vector<double>& row) {
    if (full()) return;
    scratch_.assign(row.begin(),
                    row.begin() + static_cast<std::ptrdiff_t>(nv_));
    if (reduce(scratch_) <= kRankTol) return;
    std::size_t pivot = 0;
    for (std::size_t j = 1; j < nv_; ++j) {
      if (std::abs(scratch_[j]) > std::abs(scratch_[pivot])) pivot = j;
    }
    const double scale = scratch_[pivot];
    for (double& v : scratch_) v /= scale;
    basis_.emplace_back(pivot, scratch_);
  }

  [[nodiscard]] bool full() const noexcept { return basis_.size() == nv_; }

  // Share variables whose unit vector is outside the span. Every other
  // x_v is a fixed combination of the fixed rows' values, so it is
  // constant over the round's optimal face and its probes would report
  // a point.
  [[nodiscard]] std::vector<std::size_t> unpinned_axes() const {
    std::vector<std::size_t> axes;
    std::vector<double> e;
    for (std::size_t v = 0; v < nv_; ++v) {
      e.assign(nv_, 0.0);
      e[v] = 1.0;
      if (reduce(e) > kRankTol) axes.push_back(v);
    }
    return axes;
  }

 private:
  // Reduces `row` against the span in place and returns the largest
  // residual magnitude. Each stored row is zero on every earlier pivot
  // column, so one forward sweep reduces against the whole span.
  double reduce(std::vector<double>& row) const {
    for (const auto& [pivot, b] : basis_) {
      const double f = row[pivot];
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < nv_; ++j) row[j] -= f * b[j];
    }
    double mag = 0.0;
    for (const double r : row) mag = std::max(mag, std::abs(r));
    return mag;
  }

  std::size_t nv_;
  std::vector<std::pair<std::size_t, std::vector<double>>> basis_;
  std::vector<double> scratch_;
};

// Decides which active excess rows of one round are tight in every
// least-core optimum — the fixed set of the classical scheme, which runs
// one aux-max LP per row (max a.x with eps pinned; tight iff the max is
// <= V - eps + kTol). The round's own optimum settles most rows without
// that LP:
//  1. Slack filter. If a.x* > V - eps + kTol, then x* itself is an
//     optimum where the row is slack, so the probe's max exceeds the
//     bound: the row stays active.
//  2. Dual filter. A row whose least-core dual is > kDualTol (and
//     > kDualTolMargin x options.tolerance, clear of the engine's
//     dual-feasibility noise) is binding in every primal optimum
//     (complementary slackness against that dual optimum), so the
//     probe's max equals the bound: fixed.
//  3. Batched release. The zero-slack, zero-dual rows left over share
//     capped-slack passes: max sum y_S with a.x + eps - y_S >= V,
//     0 <= y_S <= 1, eps pinned. A row with y_S > kTol has an optimum
//     where it is slack by more than kTol (released); an optimum
//     <= kTol bounds every remaining row's slack by kTol over the whole
//     optimal face (fixed). A pass that releases nothing while its
//     optimum is still > kTol falls back to step 4. Each pass starts
//     from (x*, eps, y = 0), which satisfies all of its inequalities.
//  4. One aux-max probe per row still undecided.
// `least_core` is the round's LP over the working set (variable nv is
// eps), `sol` its closed optimum, and `rows` the constraint indices of
// its active rows a.x + eps >= V. The decisions are about the full LP,
// so every pass runs to closure like the probes: `close(x)` appends the
// rows outside the working set that x violates (to `least_core` too)
// and says whether it appended any. Rows appended here are slack by
// more than kTol at x*, so none of them is tight in every optimum.
// `probe(i)` runs step 4 for rows[i] and returns the max of a.x, or
// nullopt when an LP failed. Returns one flag per entry of `rows`
// (1 = fixed), or nullopt when any LP failed.
template <typename Probe, typename Close>
std::optional<std::vector<char>> tight_rows(
    const lp::Problem& least_core, const lp::Solution& sol,
    const std::vector<std::size_t>& rows, const lp::SimplexOptions& options,
    NucleolusResult& out, Probe&& probe, Close&& close) {
  const std::size_t nv = least_core.num_variables() - 1;
  const double eps = sol.x[nv];
  const auto& cons = least_core.constraints();
  const auto bound = [&](std::size_t i) { return cons[rows[i]].rhs - eps; };
  const double dual_tol =
      std::max(kDualTol, kDualTolMargin * options.tolerance);
  std::vector<char> tight(rows.size(), 0);

  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& a = cons[rows[i]].coefficients;
    double ax = 0.0;
    for (std::size_t j = 0; j < nv; ++j) ax += a[j] * sol.x[j];
    if (ax > bound(i) + kTol) continue;
    if (!sol.duals.empty() && sol.duals[rows[i]] > dual_tol) {
      tight[i] = 1;
      continue;
    }
    open.push_back(i);
  }

  std::vector<std::size_t> slot;
  std::vector<double> start;  // (x*, eps, y = 0) holds every pass row
  while (!open.empty()) {
    const std::size_t m = open.size();
    const std::size_t none = m;
    slot.assign(cons.size(), none);
    for (std::size_t k = 0; k < m; ++k) slot[rows[open[k]]] = k;
    lp::Problem pass(nv + 1 + m, lp::Objective::kMaximize);
    for (std::size_t v = 0; v <= nv; ++v) pass.set_free(v);
    for (std::size_t r = 0; r < cons.size(); ++r) {
      std::vector<double> a = cons[r].coefficients;
      a.resize(nv + 1 + m, 0.0);
      if (slot[r] != none) a[nv + 1 + slot[r]] = -1.0;
      pass.add_constraint(std::move(a), cons[r].relation, cons[r].rhs);
    }
    {
      std::vector<double> pin(nv + 1 + m, 0.0);
      pin[nv] = 1.0;
      pass.add_constraint(std::move(pin), lp::Relation::kEqual, eps);
    }
    for (std::size_t k = 0; k < m; ++k) {
      pass.set_objective_coefficient(nv + 1 + k, 1.0);
      std::vector<double> cap(nv + 1 + m, 0.0);
      cap[nv + 1 + k] = 1.0;
      pass.add_constraint(std::move(cap), lp::Relation::kLessEqual, 1.0);
    }
    start.assign(sol.x.begin(), sol.x.end());
    start.resize(nv + 1 + m, 0.0);
    const lp::Solution pass_sol = lp::solve(pass, options, start);
    ++out.lps_solved;
    out.pivots += pass_sol.pivots;
    if (!pass_sol.optimal()) break;
    if (close(pass_sol.x)) continue;  // re-solve over the grown set
    if (pass_sol.objective <= kTol) {
      for (const std::size_t i : open) tight[i] = 1;
      open.clear();
      break;
    }
    std::vector<std::size_t> held;
    for (std::size_t k = 0; k < m; ++k) {
      if (!(pass_sol.x[nv + 1 + k] > kTol)) held.push_back(open[k]);
    }
    if (held.size() == m) break;
    open = std::move(held);
  }

  for (const std::size_t i : open) {
    const std::optional<double> max_ax = probe(i);
    if (!max_ax.has_value()) return std::nullopt;
    tight[i] = *max_ax <= bound(i) + kTol ? 1 : 0;
  }
  return tight;
}

// V(o) - x(o) for every orbit o at per-type shares x, in one pass over
// the orbit ids. An id is its type counts in mixed radix, so stepping an
// odometer from o - 1 to o leaves every digit below the one it carries
// into at zero: that digit's type t is the lowest one present in o, and
// x(o) = x(o - stride_t) + x_t.
class ExcessScan {
 public:
  ExcessScan(const OrbitIndex& index, const std::vector<double>& values)
      : values_(values),
        sums_(static_cast<std::size_t>(index.orbit_count())),
        excess_(sums_.size()) {
    std::uint64_t stride = 1;
    for (int t = 0; t < index.num_types(); ++t) {
      const int m = index.partition().multiplicity(t);
      radix_.push_back(m);
      stride_.push_back(static_cast<std::size_t>(stride));
      stride *= static_cast<std::uint64_t>(m) + 1;
    }
  }

  [[nodiscard]] const std::vector<double>& at(const std::vector<double>& x) {
    digits_.assign(radix_.size(), 0);
    sums_[0] = 0.0;
    excess_[0] = values_[0];
    for (std::size_t o = 1; o < sums_.size(); ++o) {
      std::size_t t = 0;
      while (digits_[t] == radix_[t]) digits_[t++] = 0;
      ++digits_[t];
      sums_[o] = sums_[o - stride_[t]] + x[t];
      excess_[o] = values_[o] - sums_[o];
    }
    return excess_;
  }

 private:
  const std::vector<double>& values_;
  std::vector<int> radix_;
  std::vector<std::size_t> stride_;
  std::vector<int> digits_;
  std::vector<double> sums_;
  std::vector<double> excess_;
};

// The Maschler scheme on weighted excess rows, one per proper orbit of
// `index`. Variables are per-type shares x_0..x_{T-1} plus eps, all
// free. The efficiency row reads sum_t m_t * x_t == V(N); the excess row
// of a proper orbit c reads sum_t c_t * x_t + eps >= V(c), the
// multiplicity weights c_t standing in for the prod_t C(m_t, c_t)
// identical mask rows it replaces. `values` holds V per orbit id, the
// grand orbit's last. On the all-singletons partition every orbit id is
// its coalition mask, the weights are the mask bits and every m_t is 1,
// so the same loop is the dense formulation.
//
// Correctness of running the scheme on orbit rows: (a) the nucleolus of
// a symmetric game is a symmetric allocation, so restricting to the
// symmetric subspace (x_i = x_{type(i)}) keeps the true optimum feasible
// at every round; (b) within that subspace all masks of an orbit carry
// the same excess, so the lexicographic minimisation over orbit
// excesses equals the one over mask excesses — duplicating an entry of
// a multiset does not change which vector lexicographically dominates;
// (c) the iterative fix-tight-in-every-optimum scheme computes the
// lexicographic minimiser on any polytope, independently of how many
// identical rows each constraint represents.
//
// Working set (row generation, after Hallefjord, Helming & Jørnsten
// 1995): the LPs carry only the rows of a working set, seeded with the
// per-type "one member" and "all but one" orbits, which with efficiency
// bound every share to a box. Every LP runs to closure: one scan of
// `values` finds the rows outside the set that its optimum violates,
// the `batch` most violated join, and the LP re-solves until none is
// violated. A relaxation optimum that violates no row is feasible, hence
// optimal, for the full LP, so each level, decision and the allocation
// are the full loop's. Fixed rows are always in the set; every row
// outside it is an active a.x + eps >= V row of every round.
NucleolusResult maschler(const OrbitIndex& index,
                         const std::vector<double>& values,
                         const lp::SimplexOptions& options) {
  const PlayerPartition& part = index.partition();
  const int T = index.num_types();
  const std::uint64_t orbits = index.orbit_count();
  NucleolusResult out;
  out.excess_rows = orbits - 2;
  const double grand_value = values[static_cast<std::size_t>(orbits - 1)];
  const double sep_tol =
      kSeparationTol * std::max(1.0, std::abs(grand_value));

  const auto tv = static_cast<std::size_t>(T);  // eps lives at index tv
  const std::size_t batch = tv + 1;

  std::vector<int> counts;
  std::vector<double> row;
  const auto fill_row = [&](std::uint64_t orbit, double eps_coeff)
      -> const std::vector<double>& {
    index.counts_into(orbit, counts);
    row.assign(tv + 1, 0.0);
    for (int t = 0; t < T; ++t) {
      row[static_cast<std::size_t>(t)] =
          static_cast<double>(counts[static_cast<std::size_t>(t)]);
    }
    row[tv] = eps_coeff;
    return row;
  };

  // Both LPs open with the efficiency row; the probe problem's eps pin
  // follows it. Working row #k is then constraint 1 + k of round_prob
  // and 2 + k of probe_prob. Fixing a row between rounds patches it in
  // place (relation flip, eps coefficient dropped, rhs) on both
  // problems; a row joining the working set is appended to both.
  lp::Problem round_prob(tv + 1, lp::Objective::kMinimize);
  lp::Problem probe_prob(tv + 1, lp::Objective::kMaximize);
  for (std::size_t v = 0; v <= tv; ++v) {
    round_prob.set_free(v);
    probe_prob.set_free(v);
  }
  {
    std::vector<double> eff(tv + 1, 0.0);
    for (int t = 0; t < T; ++t) {
      eff[static_cast<std::size_t>(t)] =
          static_cast<double>(part.multiplicity(t));
    }
    round_prob.add_constraint(eff, lp::Relation::kEqual, grand_value);
    probe_prob.add_constraint(std::move(eff), lp::Relation::kEqual,
                              grand_value);
  }
  round_prob.set_objective_coefficient(tv, 1.0);
  constexpr std::size_t kPinRow = 1;
  {
    std::vector<double> pin(tv + 1, 0.0);
    pin[tv] = 1.0;
    probe_prob.add_constraint(std::move(pin), lp::Relation::kEqual, 0.0);
  }

  std::vector<char> in_set(static_cast<std::size_t>(orbits), 0);
  std::vector<std::uint64_t> working;  // orbit of working row #k
  std::vector<char> fixed;             // per working row
  const auto add_row = [&](std::uint64_t orbit) {
    fill_row(orbit, 1.0);
    const double v = values[static_cast<std::size_t>(orbit)];
    round_prob.add_constraint(row, lp::Relation::kGreaterEqual, v);
    probe_prob.add_constraint(row, lp::Relation::kGreaterEqual, v);
    in_set[static_cast<std::size_t>(orbit)] = 1;
    working.push_back(orbit);
    fixed.push_back(0);
  };

  {
    std::vector<std::uint64_t> seeds;
    for (int t = 0; t < T; ++t) {
      seeds.push_back(*index.successor(0, t));
      seeds.push_back(*index.predecessor(orbits - 1, t));
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    for (const std::uint64_t o : seeds) {
      if (index.is_proper(o)) add_row(o);
    }
  }

  ExcessScan scan(index, values);
  std::vector<std::uint64_t> violated;
  // One closure step at shares x and level eps: appends the (up to
  // `batch`) rows outside the working set with V(o) - x(o) - eps above
  // the separation tolerance, most violated first, and says whether it
  // appended any.
  const auto separate = [&](const std::vector<double>& x, double eps) {
    const std::vector<double>& excess = scan.at(x);
    violated.clear();
    for (std::uint64_t o = 1; o + 1 < orbits; ++o) {
      if (in_set[static_cast<std::size_t>(o)] == 0 &&
          excess[static_cast<std::size_t>(o)] - eps > sep_tol) {
        violated.push_back(o);
      }
    }
    const auto worse = [&](std::uint64_t a, std::uint64_t b) {
      const double ea = excess[static_cast<std::size_t>(a)];
      const double eb = excess[static_cast<std::size_t>(b)];
      return ea != eb ? ea > eb : a < b;
    };
    const std::size_t keep = std::min(batch, violated.size());
    std::partial_sort(violated.begin(),
                      violated.begin() + static_cast<std::ptrdiff_t>(keep),
                      violated.end(), worse);
    violated.resize(keep);
    for (const std::uint64_t o : violated) add_row(o);
    return keep > 0;
  };

  // Every LP starts from `held`, the last optimum (x, eps) — before the
  // first, the equal split V(N) / sum_t m_t. A round LP lifts held's eps
  // to the largest excess over the active working rows first, so only
  // the equalities need artificials. Probes and release passes start
  // from the round optimum (x*, eps), which holds every inequality of
  // the eps-pinned problems.
  std::vector<double> held(
      tv + 1, grand_value / static_cast<double>(part.num_players()));
  const auto lift_eps = [&] {
    std::optional<double> eps;
    for (const lp::Constraint& c : round_prob.constraints()) {
      if (c.relation != lp::Relation::kGreaterEqual) continue;
      double ax = 0.0;
      for (std::size_t t = 0; t < tv; ++t) ax += c.coefficients[t] * held[t];
      eps = std::max(eps.value_or(c.rhs - ax), c.rhs - ax);
    }
    if (eps.has_value()) held[tv] = *eps;
  };
  // Maximizes `objective` over the eps-pinned probe rows from held.
  const auto solve_probe = [&](const std::vector<double>& objective) {
    for (std::size_t v = 0; v < objective.size(); ++v) {
      probe_prob.set_objective_coefficient(v, objective[v]);
    }
    return lp::solve(probe_prob, options, held);
  };
  std::vector<double> per_type;
  std::vector<double> objective;
  std::uint64_t num_active = orbits - 2;
  RankTracker fixed_span(tv);
  fixed_span.add(round_prob.constraints()[0].coefficients);  // efficiency

  while (num_active > 0) {
    // 1. Least-core step, closed over the working set, from held with
    //    its eps lifted.
    lp::Solution sol;
    for (;;) {
      lift_eps();
      sol = lp::solve(round_prob, options, held);
      ++out.lps_solved;
      out.pivots += sol.pivots;
      if (!sol.optimal()) return out;
      held = sol.x;
      if (!separate(sol.x, sol.x[tv])) break;
    }
    const double eps = sol.x[tv];
    out.levels.push_back(eps);
    per_type.assign(sol.x.begin(), sol.x.begin() + T);

    // Rows outside the working set within kTol of tight at x* join it
    // with zero duals, so that every row left outside is slack by more
    // than kTol at an optimum and stays active, as the slack filter
    // decides for rows inside.
    {
      const std::vector<double>& excess = scan.at(sol.x);
      for (std::uint64_t o = 1; o + 1 < orbits; ++o) {
        if (in_set[static_cast<std::size_t>(o)] == 0 &&
            excess[static_cast<std::size_t>(o)] >= eps - kTol) {
          add_row(o);
        }
      }
      if (!sol.duals.empty()) {
        sol.duals.resize(round_prob.num_constraints(), 0.0);
      }
    }

    // 2. Tightness decisions for the active working rows: tight_rows
    //    settles most from this optimum, and the rest run aux-max probes
    //    with eps pinned (row o stays active iff some optimal solution
    //    pushes x(o) above V(o) - eps). All probes of the round run
    //    against the same pre-fix row set (fixes are applied after).
    probe_prob.set_constraint_rhs(kPinRow, eps);
    std::vector<std::size_t> active_rows;
    for (std::size_t k = 0; k < working.size(); ++k) {
      if (fixed[k] == 0) active_rows.push_back(1 + k);
    }
    const auto close = [&](const std::vector<double>& x) {
      return separate(x, eps);
    };
    const auto probe = [&](std::size_t i) {
      objective = fill_row(working[active_rows[i] - 1], 0.0);
      return probe_max(solve_probe, objective, out, close);
    };
    const auto tight =
        tight_rows(round_prob, sol, active_rows, options, out, probe, close);
    if (!tight.has_value()) return out;

    // Row-set patch: each tight row becomes an equality pinned at
    // V(o) - eps_r with the eps column dropped, in place.
    bool fixed_any = false;
    for (std::size_t i = 0; i < active_rows.size(); ++i) {
      if ((*tight)[i] == 0) continue;
      const std::size_t k = active_rows[i] - 1;
      const double bound = values[static_cast<std::size_t>(working[k])] - eps;
      fill_row(working[k], 0.0);
      round_prob.set_constraint(1 + k, row, lp::Relation::kEqual, bound);
      probe_prob.set_constraint(2 + k, row, lp::Relation::kEqual, bound);
      fixed_span.add(row);
      fixed[k] = 1;
      --num_active;
      fixed_any = true;
    }
    if (!fixed_any) break;  // numerically stuck; answer stands

    // 3. Uniqueness on the patched rows (eps still pinned): full rank of
    //    the fixed equalities decides it without an LP; below full rank
    //    at most 2T closed probes — one +/- pair per type outside the
    //    fixed rows' span.
    if (num_active > 0) {
      if (fixed_span.full()) break;
      if (ranges_are_points(solve_probe, fixed_span.unpinned_axes(),
                            per_type, out, close)) {
        break;
      }
    }
  }

  // Postcondition, one scan of the full table: no coalition outside the
  // working set has an excess above the last level at the answer.
  const std::vector<double>& excess = scan.at(per_type);
  for (std::uint64_t o = 1; o + 1 < orbits; ++o) {
    if (in_set[static_cast<std::size_t>(o)] == 0 &&
        excess[static_cast<std::size_t>(o)] - out.levels.back() > sep_tol) {
      return out;
    }
  }
  out.solved = true;
  out.allocation = expand_type_values(part, per_type);
  return out;
}

}  // namespace

NucleolusResult nucleolus(const Game& game) {
  return nucleolus(game, lp::SimplexOptions{});
}

NucleolusResult nucleolus(const Game& game,
                          const lp::SimplexOptions& options) {
  const int n = game.num_players();
  if (n < 1) {
    throw std::invalid_argument("nucleolus: need at least one player");
  }
  // The dense formulation carries one excess row per proper coalition.
  if (!dense_nucleolus_fits(n)) {
    throw std::invalid_argument(
        "nucleolus: dense formulation needs 2^" + std::to_string(n) +
        " - 2 excess rows per probe LP (max " +
        std::to_string(kMaxDenseRows) +
        "); run the orbit-row quotient formulation instead "
        "(--symmetry auto/exact, nucleolus_quotient)");
  }
  if (n == 1) {
    NucleolusResult out;
    out.solved = true;
    out.allocation = {game.grand_value()};
    return out;
  }
  // The all-singletons partition: one orbit per coalition mask.
  return maschler(OrbitIndex(PlayerPartition::identity(n)),
                  tabulate(game).values(), options);
}

NucleolusResult nucleolus_quotient(const QuotientGame& game,
                                   const lp::SimplexOptions& options) {
  const OrbitIndex& index = game.orbits();
  const std::uint64_t orbits = index.orbit_count();
  if (orbits < 2) {
    throw std::invalid_argument("nucleolus_quotient: need at least one player");
  }
  const std::uint64_t rows = orbits - 2;
  if (rows > kMaxOrbitRows) {
    throw std::invalid_argument(
        "nucleolus_quotient: " + std::to_string(rows) +
        " orbit rows exceed the " + std::to_string(kMaxOrbitRows) +
        "-row ceiling; coarsen the type partition");
  }

  NucleolusResult out;
  out.excess_rows = rows;

  // Orbit values, budget-degradable: with a ComputeBudget attached each
  // orbit materialisation charges one unit, and a trip surfaces as
  // solved == false for the caller's fallback cascade.
  std::vector<double> values;
  if (options.budget != nullptr) {
    auto budgeted = game.orbit_values_budgeted(*options.budget);
    if (!budgeted.has_value()) return out;
    values = std::move(*budgeted);
  } else {
    values = game.orbit_values();
  }

  if (game.num_players() == 1) {
    out.solved = true;
    out.allocation = {values[static_cast<std::size_t>(orbits - 1)]};
    return out;
  }
  return maschler(index, values, options);
}

}  // namespace fedshare::game
