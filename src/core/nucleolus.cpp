#include "core/nucleolus.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/core_solution.hpp"
#include "core/limits.hpp"
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

// The excess rows of `index`; a game with no player, or one past
// kMaxExcessRows, is refused on behalf of `who`.
std::uint64_t checked_excess_rows(const char* who, const OrbitIndex& index) {
  const std::uint64_t rows = index.orbit_count() - 2;
  if (index.num_players() < 1 ||
      limits::exceeds(rows, limits::kMaxExcessRows)) {
    throw std::invalid_argument(
        std::string(who) + ": " +
        (index.num_players() < 1 ? "need at least one player"
                                 : excess_rows_refusal(rows)));
  }
  return rows;
}

// The largest n whose dense formulation, 2^n - 2 rows, fits
// kMaxExcessRows.
constexpr int kMaxDensePlayers = [] {
  int n = 1;
  while (!limits::exceeds((std::int64_t{1} << (n + 1)) - 2,
                          limits::kMaxExcessRows)) {
    ++n;
  }
  return n;
}();

// The all-singletons index of an n-player game (identity_index), for a
// game with at least one player whose 2^n - 2 rows fit kMaxExcessRows;
// any other is refused on behalf of `who`, as checked_excess_rows does.
const OrbitIndex& dense_index(const char* who, int n) {
  if (n < 1) {
    throw std::invalid_argument(std::string(who) +
                                ": need at least one player");
  }
  if (n > kMaxDensePlayers) {
    throw std::invalid_argument(
        std::string(who) + ": " +
        excess_rows_refusal(PlayerPartition::identity(n).orbit_count() - 2));
  }
  return identity_index(n);
}

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

// Running rank of the efficiency row plus the fixed excess rows over
// the share columns (eps dropped). It alone decides uniqueness: the
// fixed rows are the implicit equalities of the round's optimal face,
// which cut out its affine hull, so the face is a point exactly when
// they reach full rank. A row in the span has the same a.x on every
// point where those equalities hold.
class RankTracker {
 public:
  explicit RankTracker(std::size_t nv) : nv_(nv) {}

  void add(std::span<const double> row) {
    if (full() || residue(row) <= kRankTol) return;
    std::size_t pivot = 0;
    for (std::size_t j = 1; j < nv_; ++j) {
      if (std::abs(scratch_[j]) > std::abs(scratch_[pivot])) pivot = j;
    }
    const double scale = scratch_[pivot];
    for (double& v : scratch_) v /= scale;
    basis_.emplace_back(pivot, scratch_);
  }

  // Whether `row`'s share columns lie in the span.
  [[nodiscard]] bool spans(std::span<const double> row) {
    return full() || residue(row) <= kRankTol;
  }

  [[nodiscard]] bool full() const noexcept { return basis_.size() == nv_; }

 private:
  // Reduces `row`'s share columns against the span into scratch_ and
  // returns the largest residual magnitude. Each stored row is zero on
  // every earlier pivot column, so one forward sweep reduces against the
  // whole span.
  double residue(std::span<const double> row) {
    scratch_.assign(row.begin(),
                    row.begin() + static_cast<std::ptrdiff_t>(nv_));
    for (const auto& [pivot, b] : basis_) {
      const double f = scratch_[pivot];
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < nv_; ++j) scratch_[j] -= f * b[j];
    }
    double mag = 0.0;
    for (const double r : scratch_) mag = std::max(mag, std::abs(r));
    return mag;
  }

  std::size_t nv_;
  std::vector<std::pair<std::size_t, std::vector<double>>> basis_;
  std::vector<double> scratch_;
};

// The memory one Maschler chain reuses from LP to LP: the dense
// engine's workspace, shared by the round LPs, their closure re-solves,
// the probes and the release passes, and the problems of the release
// pass and of the step-4 probe, rebuilt in place for each solve. It
// lives as long as the chain.
struct ChainBuffers {
  lp::DenseWorkspace lp;
  lp::Problem pass{1, lp::Objective::kMaximize};
  lp::Problem probe{1, lp::Objective::kMaximize};
  std::vector<std::size_t> slot;   // per constraint: its y column, or none
  std::vector<double> start;       // (x*, eps, y = 0)
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
//  2b. Span filter. Efficiency, the rows fixed in earlier rounds and the
//     dual-tight rows hold as equalities on the whole optimal face, so
//     a row in their span (share columns) has a.x = a.x* there: a
//     zero-slack one is tight in every optimum, fixed. `fixed_span`
//     holds efficiency and the earlier fixed rows; the dual-tight rows
//     join it here, as they are fixed this round.
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
    NucleolusResult& out, ChainBuffers& buf, RankTracker& fixed_span,
    Probe&& probe, Close&& close) {
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
  // Step 2b.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (tight[i] != 0) fixed_span.add(cons[rows[i]].coefficients);
  }
  std::erase_if(open, [&](std::size_t i) {
    if (!fixed_span.spans(cons[rows[i]].coefficients)) return false;
    tight[i] = 1;
    return true;
  });

  // Each pass: every working row, a y column on each open one, then the
  // eps pin and the y caps, written over the chain's pass problem.
  lp::Problem& pass = buf.pass;
  while (!open.empty()) {
    const std::size_t m = open.size();
    const std::size_t none = m;
    const std::size_t width = nv + 1 + m;
    buf.slot.assign(cons.size(), none);
    for (std::size_t k = 0; k < m; ++k) buf.slot[rows[open[k]]] = k;
    pass.reshape(width, cons.size() + 1 + m);
    for (std::size_t v = 0; v <= nv; ++v) pass.set_free(v);
    for (std::size_t r = 0; r < cons.size(); ++r) {
      const std::span<double> a =
          pass.edit_constraint(r, cons[r].relation, cons[r].rhs);
      std::copy(cons[r].coefficients.begin(), cons[r].coefficients.end(),
                a.begin());
      if (buf.slot[r] != none) a[nv + 1 + buf.slot[r]] = -1.0;
    }
    pass.edit_constraint(cons.size(), lp::Relation::kEqual, eps)[nv] = 1.0;
    for (std::size_t k = 0; k < m; ++k) {
      pass.set_objective_coefficient(nv + 1 + k, 1.0);
      pass.edit_constraint(cons.size() + 1 + k, lp::Relation::kLessEqual,
                           1.0)[nv + 1 + k] = 1.0;
    }
    buf.start.assign(sol.x.begin(), sol.x.end());
    buf.start.resize(width, 0.0);
    const lp::Solution pass_sol =
        lp::solve(pass, options, buf.start, buf.lp);
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

// Merges the constant excesses of retired rows into `levels`, the LP
// rounds' levels in round order, into the level list of the classical
// loop, which spends each round on the largest excess still unfixed and
// fixes with it every constant one within kTol below. A retired excess
// above the next LP level is a round of its own, unless it lies within
// kTol of the level kept before it; an LP level within kTol below a
// retired one is that round, whose optimum is the larger. The loop stops
// after the last LP round, so a retired excess below that level is no
// level. Sorts `retired`.
void merge_levels(std::vector<double>& levels, std::vector<double>& retired) {
  if (retired.empty()) return;
  std::ranges::sort(retired, std::greater<>());
  std::vector<double> merged;
  bool lp_in_group = false;  // the last kept level is an LP round's
  std::size_t j = 0;
  for (const double level : levels) {
    for (; j < retired.size() && retired[j] > level; ++j) {
      if (merged.empty() || retired[j] < merged.back() - kTol) {
        merged.push_back(retired[j]);
        lp_in_group = false;
      }
    }
    if (merged.empty() || lp_in_group || level < merged.back() - kTol) {
      merged.push_back(level);
    }
    lp_in_group = true;
  }
  levels = std::move(merged);
}

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
// outside it is an active a.x + eps >= V row of every round, or retired.
//
// Retirement (Maschler, Peleg & Shapley 1979; Benedek, Fliege & Nguyen
// 2021): from the second round on, every LP holds efficiency and the
// fixed rows as equalities, so an active row in their span (fixed_span)
// has one excess e on every point it reaches. Such a row takes no LP.
// The classical loop would give it a round of its own at level e, or
// fix it in the LP round within kTol of e, and never raise the rank with
// it; here it is retired at e, out of every later LP. The test runs only
// where it is cheap: on the active working rows at each round start (a
// retired working row becomes the equality a.x = a.x*, which the started
// solves substitute out) and on the rows a round LP's closure finds
// violated (marked instead of joining). merge_levels lists the retired
// excesses among the LP rounds' levels at the end.
//
// With `least` set the loop stops after the first round's closed LP,
// the least-core LP, and fills `least` from its optimum (least_core on
// the all-singletons partition, where orbit ids are coalition masks).
NucleolusResult maschler(const OrbitIndex& index,
                         const std::vector<double>& values,
                         const lp::SimplexOptions& options,
                         LeastCoreResult* least = nullptr) {
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

  // The round LP opens with the efficiency row; working row #k is then
  // its constraint 1 + k. Fixing or retiring a row between rounds
  // patches it in place (relation flip, eps coefficient dropped, rhs); a
  // row joining the working set is appended. A step-4 probe builds its
  // problem from this one (solve_probe).
  lp::Problem round_prob(tv + 1, lp::Objective::kMinimize);
  for (std::size_t v = 0; v <= tv; ++v) round_prob.set_free(v);
  {
    std::vector<double> eff(tv + 1, 0.0);
    for (int t = 0; t < T; ++t) {
      eff[static_cast<std::size_t>(t)] =
          static_cast<double>(part.multiplicity(t));
    }
    round_prob.add_constraint(std::move(eff), lp::Relation::kEqual,
                              grand_value);
  }
  round_prob.set_objective_coefficient(tv, 1.0);

  // Per orbit: outside the working set, in it, or retired outside it.
  enum : char { kOutside, kWorking, kRetired };
  std::vector<char> in_set(static_cast<std::size_t>(orbits), kOutside);
  std::vector<std::uint64_t> working;  // orbit of working row #k
  std::vector<char> fixed;             // per working row: fixed or retired
  const auto add_row = [&](std::uint64_t orbit) {
    fill_row(orbit, 1.0);
    round_prob.add_constraint(row, lp::Relation::kGreaterEqual,
                              values[static_cast<std::size_t>(orbit)]);
    in_set[static_cast<std::size_t>(orbit)] = kWorking;
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

  std::uint64_t num_active = orbits - 2;
  RankTracker fixed_span(tv);
  fixed_span.add(round_prob.constraints()[0].coefficients);  // efficiency
  std::vector<double> retired;  // the constant excess of each retired row

  ExcessScan scan(index, values);
  std::vector<std::uint64_t> violated;
  // One closure step at shares x and level eps: appends the (up to
  // `batch`) rows outside the working set with V(o) - x(o) - eps above
  // the separation tolerance, most violated first, and says whether it
  // appended any. With `retire` set (a round LP from the second round
  // on) a violated row in the fixed span is retired instead.
  const auto separate = [&](const std::vector<double>& x, double eps,
                            bool retire) {
    const std::vector<double>& excess = scan.at(x);
    violated.clear();
    for (std::uint64_t o = 1; o + 1 < orbits; ++o) {
      const auto s = static_cast<std::size_t>(o);
      if (in_set[s] != kOutside || !(excess[s] - eps > sep_tol)) continue;
      if (retire && fixed_span.spans(fill_row(o, 0.0))) {
        in_set[s] = kRetired;
        retired.push_back(excess[s]);
        --num_active;
        continue;
      }
      violated.push_back(o);
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
  // to the largest excess over the active working rows first, so every
  // inequality holds, and lp::solve substitutes out the equalities held
  // satisfies (efficiency and the rows fixed tight or retired at it).
  // Probes and release passes start from the round optimum (x*, eps),
  // which holds every inequality of the eps-pinned problems and their
  // eps pin.
  std::vector<double> held(
      tv + 1, grand_value / static_cast<double>(part.num_players()));
  ChainBuffers buf;
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
  // Maximizes `objective` from held over the round's rows with eps pinned
  // at `eps`: round_prob's rows with the pin after efficiency, so working
  // row #k is constraint 2 + k.
  const auto solve_probe = [&](const std::vector<double>& objective,
                               double eps) {
    const std::vector<lp::Constraint>& cons = round_prob.constraints();
    lp::Problem& probe = buf.probe;
    probe.reshape(tv + 1, cons.size() + 1);
    for (std::size_t v = 0; v <= tv; ++v) {
      probe.set_free(v);
      probe.set_objective_coefficient(v, objective[v]);
    }
    probe.edit_constraint(1, lp::Relation::kEqual, eps)[tv] = 1.0;
    for (std::size_t r = 0; r < cons.size(); ++r) {
      std::ranges::copy(
          cons[r].coefficients,
          probe.edit_constraint(r == 0 ? 0 : r + 1, cons[r].relation,
                                cons[r].rhs)
              .begin());
    }
    return lp::solve(probe, options, held, buf.lp);
  };
  // A one-player game has no excess row: its answer is held's V(N).
  std::vector<double> per_type(held.begin(), held.begin() + T);
  std::vector<double> objective;

  while (num_active > 0) {
    // 0. Retirement of the active working rows in the fixed span, at
    //    their excess at held, the last optimum, where every fixed row
    //    is tight.
    const bool retire = !out.levels.empty();
    for (std::size_t k = 0; retire && k < working.size(); ++k) {
      if (fixed[k] != 0 || !fixed_span.spans(fill_row(working[k], 0.0))) {
        continue;
      }
      double ax = 0.0;
      for (std::size_t t = 0; t < tv; ++t) ax += row[t] * held[t];
      retired.push_back(values[static_cast<std::size_t>(working[k])] - ax);
      std::ranges::copy(
          row,
          round_prob.edit_constraint(1 + k, lp::Relation::kEqual, ax).begin());
      fixed[k] = 1;
      --num_active;
    }
    if (num_active == 0) break;  // all retired: the last answer stands

    // 1. Least-core step, closed over the working set, from held with
    //    its eps lifted.
    lp::Solution sol;
    for (;;) {
      lift_eps();
      sol = lp::solve(round_prob, options, held, buf.lp);
      ++out.lps_solved;
      out.pivots += sol.pivots;
      if (least != nullptr) least->status = sol.status;
      if (!sol.optimal()) return out;
      held = sol.x;
      if (!separate(sol.x, sol.x[tv], retire)) break;
    }
    const double eps = sol.x[tv];
    out.levels.push_back(eps);
    per_type.assign(sol.x.begin(), sol.x.begin() + T);
    if (least != nullptr) {
      *least = {true, sol.status, eps, expand_type_values(part, per_type), {}};
      for (std::size_t k = 0; k + 1 < sol.duals.size(); ++k) {
        if (sol.duals[1 + k] > 0.0) {
          least->weights.push_back(
              {Coalition::from_bits(working[k]), sol.duals[1 + k]});
        }
      }
      return out;
    }

    // Rows outside the working set within kTol of tight at x* join it
    // with zero duals, so that every row left outside is slack by more
    // than kTol at an optimum and stays active, as the slack filter
    // decides for rows inside.
    {
      const std::vector<double>& excess = scan.at(sol.x);
      for (std::uint64_t o = 1; o + 1 < orbits; ++o) {
        if (in_set[static_cast<std::size_t>(o)] == kOutside &&
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
    std::vector<std::size_t> active_rows;
    for (std::size_t k = 0; k < working.size(); ++k) {
      if (fixed[k] == 0) active_rows.push_back(1 + k);
    }
    const auto close = [&](const std::vector<double>& x) {
      return separate(x, eps, false);
    };
    const auto solve_pinned = [&](const std::vector<double>& obj) {
      return solve_probe(obj, eps);
    };
    const auto probe = [&](std::size_t i) {
      objective = fill_row(working[active_rows[i] - 1], 0.0);
      return probe_max(solve_pinned, objective, out, close);
    };
    const auto tight = tight_rows(round_prob, sol, active_rows, options, out,
                                  buf, fixed_span, probe, close);
    if (!tight.has_value()) return out;

    // Row-set patch: each tight row becomes an equality pinned at
    // V(o) - eps_r with the eps column dropped, in place.
    bool fixed_any = false;
    for (std::size_t i = 0; i < active_rows.size(); ++i) {
      if ((*tight)[i] == 0) continue;
      const std::size_t k = active_rows[i] - 1;
      const double bound = values[static_cast<std::size_t>(working[k])] - eps;
      fill_row(working[k], 0.0);
      std::ranges::copy(
          row,
          round_prob.edit_constraint(1 + k, lp::Relation::kEqual, bound)
              .begin());
      fixed_span.add(row);
      fixed[k] = 1;
      --num_active;
      fixed_any = true;
    }
    if (!fixed_any) break;  // numerically stuck; answer stands

    // 3. Uniqueness: the allocation is a point once the fixed equalities
    //    reach full rank; below it the next round goes on.
    if (fixed_span.full()) break;
  }

  // Postcondition, one scan of the full table: no coalition outside the
  // working set, retired ones aside, has an excess above the last LP
  // round's level at the answer. (A one-player game has neither.)
  if (!out.levels.empty()) {
    const std::vector<double>& excess = scan.at(per_type);
    for (std::uint64_t o = 1; o + 1 < orbits; ++o) {
      if (in_set[static_cast<std::size_t>(o)] == kOutside &&
          excess[static_cast<std::size_t>(o)] - out.levels.back() > sep_tol) {
        return out;
      }
    }
    merge_levels(out.levels, retired);
  }
  out.solved = true;
  out.allocation = expand_type_values(part, per_type);
  return out;
}

}  // namespace

std::string excess_rows_refusal(std::uint64_t rows) {
  return std::to_string(rows) + " excess rows exceed " +
         std::string(limits::kMaxExcessRows.name) + " = " +
         std::to_string(limits::kMaxExcessRows.value);
}

NucleolusResult nucleolus(const Game& game,
                          const lp::SimplexOptions& options) {
  // The all-singletons partition: one orbit per coalition mask.
  const OrbitIndex& index = dense_index("nucleolus", game.num_players());
  // A TabularGame's table is read in place; any other game is tabulated.
  std::optional<TabularGame> storage;
  const TabularGame& tab = *borrow_or_tabulate(
      game, runtime::ComputeBudget::unlimited(), storage);
  return maschler(index, tab.values(), options);
}

LeastCoreResult least_core(const Game& game,
                           const lp::SimplexOptions& options) {
  const OrbitIndex& index = dense_index("least_core", game.num_players());
  LeastCoreResult out;
  out.status = lp::SolveStatus::kUnbounded;  // stands for n = 1: no row
  std::optional<TabularGame> storage;
  const TabularGame& tab = *borrow_or_tabulate(
      game, runtime::ComputeBudget::unlimited(), storage);
  (void)maschler(index, tab.values(), options, &out);
  return out;
}

NucleolusResult nucleolus_quotient(const QuotientGame& game,
                                   const lp::SimplexOptions& options) {
  const OrbitIndex& index = game.orbits();
  NucleolusResult out;
  out.excess_rows = checked_excess_rows("nucleolus_quotient", index);

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
  return maschler(index, values, options);
}

}  // namespace fedshare::game
