#include "nucleolus_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/revised_simplex.hpp"

namespace fedshare::game::reference {

namespace {

constexpr double kTol = 1e-7;

// Solves `prob` on a fresh revised engine, warm from `basis`, and keeps
// the optimum's basis for the next solve. Every edit goes to the
// lp::Problem; the engine is rebuilt per solve, so the start carries
// over only through the basis.
lp::Solution solve_warm(const lp::Problem& prob,
                        const lp::SimplexOptions& options, lp::Basis& basis) {
  lp::RevisedSimplex engine(prob, options);
  lp::Solution sol = engine.solve_from_basis(basis);
  if (sol.optimal()) basis = engine.basis();
  return sol;
}

// Warm-started chain of objective-only re-solves over one constraint set
// (revised engine): each probe sets the whole objective and re-solves
// from the last optimum's basis.
class ObjectiveChain {
 public:
  ObjectiveChain(lp::Problem prob, const lp::SimplexOptions& options,
                 lp::Basis basis = {})
      : prob_(std::move(prob)), options_(options), basis_(std::move(basis)) {}

  [[nodiscard]] lp::Solution solve(const std::vector<double>& objective) {
    for (std::size_t v = 0; v < objective.size(); ++v) {
      prob_.set_objective_coefficient(v, objective[v]);
    }
    return solve_warm(prob_, options_, basis_);
  }
  [[nodiscard]] const lp::Basis& basis() const noexcept { return basis_; }

 private:
  lp::Problem prob_;
  lp::SimplexOptions options_;
  lp::Basis basis_;
};

// Round state of the mask formulation: (mask, rhs) fixed rows and the
// active masks, rebuilt into a fresh least-core LP every round.
struct RoundContext {
  int n = 0;
  double grand_value = 0.0;
  const std::vector<double>* values = nullptr;
  std::vector<std::pair<std::uint64_t, double>> fixed;
  std::vector<std::uint64_t> active;

  [[nodiscard]] std::vector<double> row_for(std::uint64_t mask,
                                            double eps_coeff) const {
    std::vector<double> row(static_cast<std::size_t>(n) + 1, 0.0);
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) row[static_cast<std::size_t>(i)] = 1.0;
    }
    row[static_cast<std::size_t>(n)] = eps_coeff;
    return row;
  }

  [[nodiscard]] lp::Problem base_problem() const {
    const auto nv = static_cast<std::size_t>(n);
    lp::Problem prob(nv + 1, lp::Objective::kMinimize);
    for (std::size_t i = 0; i <= nv; ++i) prob.set_free(i);
    std::vector<double> eff(nv + 1, 0.0);
    for (std::size_t i = 0; i < nv; ++i) eff[i] = 1.0;
    prob.add_constraint(std::move(eff), lp::Relation::kEqual, grand_value);
    for (const auto& [mask, rhs] : fixed) {
      prob.add_constraint(row_for(mask, 0.0), lp::Relation::kEqual, rhs);
    }
    for (const std::uint64_t mask : active) {
      prob.add_constraint(row_for(mask, 1.0), lp::Relation::kGreaterEqual,
                          (*values)[mask]);
    }
    return prob;
  }
};

// `base`'s constraints with eps pinned at `eps`, maximizing `objective`.
lp::Problem pinned_problem(const lp::Problem& base, double eps,
                       const std::vector<double>& objective) {
  const std::size_t nv = base.num_variables() - 1;
  lp::Problem p(nv + 1, lp::Objective::kMaximize);
  for (std::size_t v = 0; v <= nv; ++v) {
    p.set_free(v);
    p.set_objective_coefficient(v, objective[v]);
  }
  for (const auto& c : base.constraints()) {
    p.add_constraint(c.coefficients, c.relation, c.rhs);
  }
  std::vector<double> pin(nv + 1, 0.0);
  pin[nv] = 1.0;
  p.add_constraint(std::move(pin), lp::Relation::kEqual, eps);
  return p;
}

// Every share variable's range over the eps-pinned face, probed
// -x_v then +x_v through `solve`; true when every range is a point.
bool ranges_are_points(
    std::size_t nv,
    const std::function<lp::Solution(const std::vector<double>&)>& solve,
    NucleolusResult& out) {
  for (std::size_t v = 0; v < nv; ++v) {
    double extremes[2];
    for (int dir = 0; dir < 2; ++dir) {
      std::vector<double> obj(nv + 1, 0.0);
      obj[v] = dir == 0 ? -1.0 : 1.0;
      const lp::Solution s = solve(obj);
      ++out.lps_solved;
      out.pivots += s.pivots;
      if (!s.optimal()) return false;
      extremes[dir] = dir == 0 ? -s.objective : s.objective;
    }
    if (extremes[1] - extremes[0] > kTol) return false;
  }
  return true;
}

}  // namespace

NucleolusResult unfiltered_nucleolus(const TabularGame& tab,
                                     const lp::SimplexOptions& options) {
  const int n = tab.num_players();
  NucleolusResult out;
  if (n == 1) {
    out.solved = true;
    out.allocation = {tab.grand_value()};
    return out;
  }
  const std::uint64_t grand = (std::uint64_t{1} << n) - 1;
  RoundContext ctx;
  ctx.n = n;
  ctx.grand_value = tab.values()[grand];
  ctx.values = &tab.values();
  for (std::uint64_t mask = 1; mask < grand; ++mask) ctx.active.push_back(mask);
  out.excess_rows = grand - 1;

  const auto nv = static_cast<std::size_t>(n);
  const bool revised = options.solver == lp::SolverKind::kRevised;
  std::vector<double> allocation;
  lp::Basis round_basis;
  while (!ctx.active.empty()) {
    lp::Problem prob = ctx.base_problem();
    prob.set_objective_coefficient(nv, 1.0);
    lp::Solution sol;
    if (revised) {
      sol = solve_warm(prob, options, round_basis);
    } else {
      sol = lp::solve(prob, options);
    }
    ++out.lps_solved;
    out.pivots += sol.pivots;
    if (!sol.optimal()) return out;
    const double eps = sol.x[nv];
    out.levels.push_back(eps);
    allocation.assign(sol.x.begin(), sol.x.begin() + n);

    // Every active row gets its own aux-max probe.
    const std::vector<double> zero(nv + 1, 0.0);
    std::optional<ObjectiveChain> chain;
    if (revised) chain.emplace(pinned_problem(prob, eps, zero), options);
    std::vector<std::uint64_t> still_active;
    bool fixed_any = false;
    for (const std::uint64_t mask : ctx.active) {
      const std::vector<double> obj = ctx.row_for(mask, 0.0);
      const lp::Solution aux =
          revised ? chain->solve(obj)
                  : lp::solve(pinned_problem(prob, eps, obj), options);
      ++out.lps_solved;
      out.pivots += aux.pivots;
      if (!aux.optimal()) return out;
      const double bound = tab.values()[mask] - eps;
      if (aux.objective <= bound + kTol) {
        ctx.fixed.emplace_back(mask, bound);
        fixed_any = true;
      } else {
        still_active.push_back(mask);
      }
    }
    ctx.active = std::move(still_active);
    if (!fixed_any) break;

    if (!ctx.active.empty()) {
      const lp::Problem base = ctx.base_problem();
      std::optional<ObjectiveChain> probe_chain;
      if (revised) {
        probe_chain.emplace(pinned_problem(base, eps, zero), options);
      }
      const auto solve = [&](const std::vector<double>& obj) {
        return revised ? probe_chain->solve(obj)
                       : lp::solve(pinned_problem(base, eps, obj), options);
      };
      if (ranges_are_points(nv, solve, out)) break;
    }
  }
  out.solved = true;
  out.allocation = std::move(allocation);
  return out;
}

NucleolusResult unfiltered_nucleolus_quotient(
    const QuotientGame& game, const lp::SimplexOptions& options) {
  const OrbitIndex& index = game.orbits();
  const PlayerPartition& part = index.partition();
  const int T = index.num_types();
  const std::uint64_t orbits = index.orbit_count();
  NucleolusResult out;
  out.excess_rows = orbits - 2;
  const std::vector<double> values = game.orbit_values();
  const double grand_value = values[static_cast<std::size_t>(orbits - 1)];
  if (game.num_players() == 1) {
    out.solved = true;
    out.allocation = {grand_value};
    return out;
  }
  const auto tv = static_cast<std::size_t>(T);
  const bool revised = options.solver == lp::SolverKind::kRevised;

  std::vector<std::uint64_t> proper;
  for (std::uint64_t o = 1; o + 1 < orbits; ++o) proper.push_back(o);
  std::vector<char> active(proper.size(), 1);
  std::vector<int> counts;
  const auto row_of = [&](std::uint64_t orbit, double eps_coeff) {
    index.counts_into(orbit, counts);
    std::vector<double> row(tv + 1, 0.0);
    for (int t = 0; t < T; ++t) {
      row[static_cast<std::size_t>(t)] =
          static_cast<double>(counts[static_cast<std::size_t>(t)]);
    }
    row[tv] = eps_coeff;
    return row;
  };

  lp::Problem round_prob(tv + 1, lp::Objective::kMinimize);
  lp::Problem probe_prob(tv + 1, lp::Objective::kMaximize);
  for (std::size_t v = 0; v <= tv; ++v) {
    round_prob.set_free(v);
    probe_prob.set_free(v);
  }
  std::vector<double> eff(tv + 1, 0.0);
  for (int t = 0; t < T; ++t) {
    eff[static_cast<std::size_t>(t)] =
        static_cast<double>(part.multiplicity(t));
  }
  round_prob.add_constraint(eff, lp::Relation::kEqual, grand_value);
  probe_prob.add_constraint(eff, lp::Relation::kEqual, grand_value);
  for (const std::uint64_t o : proper) {
    const std::vector<double> row = row_of(o, 1.0);
    round_prob.add_constraint(row, lp::Relation::kGreaterEqual,
                              values[static_cast<std::size_t>(o)]);
    probe_prob.add_constraint(row, lp::Relation::kGreaterEqual,
                              values[static_cast<std::size_t>(o)]);
  }
  round_prob.set_objective_coefficient(tv, 1.0);
  const std::size_t pin_row = 1 + proper.size();
  std::vector<double> pin(tv + 1, 0.0);
  pin[tv] = 1.0;
  probe_prob.add_constraint(pin, lp::Relation::kEqual, 0.0);

  lp::Basis round_basis;
  lp::Basis probe_basis;
  std::vector<double> per_type;
  std::size_t num_active = proper.size();
  const auto cold = [&](const std::vector<double>& obj) {
    for (std::size_t v = 0; v <= tv; ++v) {
      probe_prob.set_objective_coefficient(v, obj[v]);
    }
    return lp::solve(probe_prob, options);
  };

  while (num_active > 0) {
    lp::Solution sol;
    if (revised) {
      sol = solve_warm(round_prob, options, round_basis);
    } else {
      sol = lp::solve(round_prob, options);
    }
    ++out.lps_solved;
    out.pivots += sol.pivots;
    if (!sol.optimal()) return out;
    const double eps = sol.x[tv];
    out.levels.push_back(eps);
    per_type.assign(sol.x.begin(), sol.x.begin() + T);

    probe_prob.set_constraint_rhs(pin_row, eps);
    std::optional<ObjectiveChain> chain;
    if (revised) chain.emplace(probe_prob, options, std::move(probe_basis));
    std::vector<std::pair<std::size_t, double>> newly_fixed;
    for (std::size_t k = 0; k < proper.size(); ++k) {
      if (!active[k]) continue;
      const std::vector<double> obj = row_of(proper[k], 0.0);
      const lp::Solution aux = revised ? chain->solve(obj) : cold(obj);
      ++out.lps_solved;
      out.pivots += aux.pivots;
      if (!aux.optimal()) return out;
      const double bound = values[static_cast<std::size_t>(proper[k])] - eps;
      if (aux.objective <= bound + kTol) newly_fixed.emplace_back(k, bound);
    }
    if (revised) probe_basis = chain->basis();
    if (newly_fixed.empty()) break;

    for (const auto& [k, bound] : newly_fixed) {
      const std::vector<double> row = row_of(proper[k], 0.0);
      const std::size_t cidx = 1 + k;
      round_prob.set_constraint(cidx, row, lp::Relation::kEqual, bound);
      probe_prob.set_constraint(cidx, row, lp::Relation::kEqual, bound);
      active[k] = 0;
      --num_active;
    }

    if (num_active > 0) {
      std::optional<ObjectiveChain> probe_chain;
      if (revised) {
        probe_chain.emplace(probe_prob, options, std::move(probe_basis));
      }
      const auto solve = [&](const std::vector<double>& obj) {
        return revised ? probe_chain->solve(obj) : cold(obj);
      };
      const bool unique = ranges_are_points(tv, solve, out);
      if (revised) probe_basis = probe_chain->basis();
      if (unique) break;
    }
  }
  out.solved = true;
  out.allocation = expand_type_values(part, per_type);
  return out;
}

double surplus(const Game& game, const std::vector<double>& allocation,
               int i, int j) {
  const int n = game.num_players();
  if (allocation.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("surplus: allocation size must equal n");
  }
  if (i < 0 || j < 0 || i >= n || j >= n || i == j) {
    throw std::invalid_argument("surplus: need distinct players in range");
  }
  double best = -std::numeric_limits<double>::infinity();
  const std::uint64_t count = std::uint64_t{1} << n;
  for (std::uint64_t mask = 1; mask < count; ++mask) {
    if (((mask >> i) & 1u) == 0 || ((mask >> j) & 1u) != 0) continue;
    double excess = game.value(Coalition::from_bits(mask));
    for (std::uint64_t b = mask; b != 0; b &= b - 1) {
      excess -= allocation[static_cast<std::size_t>(__builtin_ctzll(b))];
    }
    best = std::max(best, excess);
  }
  return best;
}

double max_surplus_imbalance(const Game& game,
                             const std::vector<double>& allocation) {
  double worst = 0.0;
  for (int i = 0; i < game.num_players(); ++i) {
    for (int j = i + 1; j < game.num_players(); ++j) {
      worst = std::max(worst, std::abs(surplus(game, allocation, i, j) -
                                       surplus(game, allocation, j, i)));
    }
  }
  return worst;
}

}  // namespace fedshare::game::reference
