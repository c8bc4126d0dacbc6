#include "verify/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/core_solution.hpp"
#include "core/limits.hpp"
#include "core/nucleolus.hpp"

namespace fedshare::verify {

namespace {

// splitmix64: tiny deterministic generator so the auditor does not pull
// in the sim layer.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void AuditReport::add_issue(std::string check, std::string detail,
                            double magnitude) {
  passed = false;
  if (issues.size() < kMaxIssues) {
    issues.push_back({std::move(check), std::move(detail), magnitude});
  }
}

void AuditReport::add_note(std::string check, std::string detail,
                           double magnitude) {
  if (notes.size() < kMaxIssues) {
    notes.push_back({std::move(check), std::move(detail), magnitude});
  }
}

AuditReport audit_game(const game::Game& g, const VerifyOptions& options) {
  AuditReport report;
  const int n = g.num_players();
  if (n <= 1) return report;
  if (limits::exceeds(n, limits::kMaxAuditPlayers)) {
    report.add_note("sampling",
                    limits::refusal("audit_game", n, limits::kMaxAuditPlayers),
                    0.0);
    return report;
  }
  const std::uint64_t full = (std::uint64_t{1} << n) - 1;
  const double tol = options.tolerance;
  std::uint64_t rng = options.audit_seed;

  for (std::size_t s = 0; s < options.audit_samples; ++s) {
    // Monotonicity on a sampled nested pair S subset T.
    const std::uint64_t t_mask = splitmix64(rng) & full;
    const std::uint64_t s_mask = splitmix64(rng) & t_mask;
    const double vt = g.value(game::Coalition::from_bits(t_mask));
    const double vs = g.value(game::Coalition::from_bits(s_mask));
    ++report.checks;
    if (vs > vt + tol) {
      report.add_issue(
          "monotonicity",
          "V(" + game::Coalition::from_bits(s_mask).to_string() +
              ") > V(" + game::Coalition::from_bits(t_mask).to_string() + ")",
          vs - vt);
    }
    // Superadditivity on a sampled disjoint pair.
    const std::uint64_t a_mask = splitmix64(rng) & full;
    const std::uint64_t b_mask = splitmix64(rng) & full & ~a_mask;
    if (a_mask == 0 || b_mask == 0) continue;
    const double va = g.value(game::Coalition::from_bits(a_mask));
    const double vb = g.value(game::Coalition::from_bits(b_mask));
    const double vu = g.value(game::Coalition::from_bits(a_mask | b_mask));
    ++report.checks;
    if (va + vb > vu + tol) {
      // A true fact, not a failure: overlapping facilities double-count
      // shared capacity until pooled, so V may be subadditive there.
      report.add_note(
          "superadditivity",
          "V(" + game::Coalition::from_bits(a_mask).to_string() + ") + V(" +
              game::Coalition::from_bits(b_mask).to_string() + ") > V(union)",
          va + vb - vu);
    }
  }
  return report;
}

void audit_outcomes(const game::TabularGame& g,
                    const std::vector<game::SchemeOutcome>& outcomes,
                    const lp::SimplexOptions& lp_options,
                    const VerifyOptions& options, AuditReport& report) {
  const int n = g.num_players();
  const double vn = g.grand_value();
  const double tol = options.tolerance * std::max(1.0, std::abs(vn));

  for (const auto& outcome : outcomes) {
    const std::string name = game::to_string(outcome.scheme);
    // Shares sum to 1; payoffs sum to V(N) (efficiency, Eq. 4-7).
    double share_sum = 0.0;
    for (double s : outcome.shares) share_sum += s;
    ++report.checks;
    if (std::abs(share_sum - 1.0) > options.tolerance) {
      report.add_issue("shares:" + name, "shares sum to " +
                           std::to_string(share_sum) + ", expected 1",
                       std::abs(share_sum - 1.0));
    }
    double payoff_sum = 0.0;
    for (double p : outcome.payoffs) payoff_sum += p;
    ++report.checks;
    if (std::abs(payoff_sum - vn) > tol) {
      report.add_issue("efficiency:" + name,
                       "payoffs sum to " + std::to_string(payoff_sum) +
                           ", expected V(N) = " + std::to_string(vn),
                       std::abs(payoff_sum - vn));
    }
    // Core flags agree with a recomputed residual (wherever the
    // comparison checked core membership).
    if (outcome.in_core.has_value()) {
      const double violation = game::max_core_violation(g, outcome.payoffs);
      const bool efficient = std::abs(payoff_sum - vn) <= tol;
      const bool recomputed = efficient && violation <= options.tolerance;
      ++report.checks;
      if (recomputed != *outcome.in_core) {
        report.add_issue("core:" + name,
                         std::string("in_core flag disagrees with residual "
                                     "(max violation ") +
                             std::to_string(violation) + ")",
                         std::abs(violation));
      }
    }
  }

  // Nucleolus first level, certified from the raw table: the least
  // core's dual weights, checked against V, bound every efficient
  // allocation's largest excess from below, and the nucleolus must reach
  // that bound. Only the weights come from an LP, so the check holds
  // whichever formulation computed the nucleolus.
  const auto nucleolus =
      std::find_if(outcomes.begin(), outcomes.end(), [](const auto& o) {
        return o.scheme == game::Scheme::kNucleolus;
      });
  if (nucleolus == outcomes.end() || n < 2 || std::abs(vn) <= 1e-12) return;
  const std::uint64_t rows = (std::uint64_t{1} << n) - 2;
  if (limits::exceeds(rows, limits::kMaxExcessRows)) {
    report.add_note("nucleolus",
                    "first level unchecked: " + game::excess_rows_refusal(rows),
                    0.0);
    return;
  }
  lp::SimplexOptions cold = lp_options;
  cold.observer = nullptr;  // the audit's own solves are not audited
  const auto lc = game::least_core(g, cold);
  if (lc.weights.empty()) {  // unsolved, or no duals to check
    report.add_note("nucleolus",
                    std::string("first level unchecked: least core ") +
                        lp::to_string(lc.status) + " with no weights",
                    0.0);
    return;
  }
  const ExcessBound bound = least_core_bound(g, lc.weights, options.tolerance);
  const double excess = game::max_core_violation(g, nucleolus->payoffs);
  ++report.checks;
  if (!bound.rejected.empty()) {
    report.add_issue("nucleolus", "least-core weights " + bound.rejected, 0.0);
  } else if (excess > bound.bound + tol) {
    report.add_issue("nucleolus",
                     "max excess " + std::to_string(excess) +
                         " exceeds the least-core bound " +
                         std::to_string(bound.bound),
                     excess - bound.bound);
  }
}

ExcessBound least_core_bound(const game::TabularGame& g,
                             const std::vector<game::CoalitionWeight>& weights,
                             double tolerance) {
  const int n = g.num_players();
  std::vector<double> cover(static_cast<std::size_t>(n), 0.0);
  double total = 0.0;
  double weighted = 0.0;
  for (const auto& [coalition, y] : weights) {
    const std::uint64_t mask = coalition.bits();
    if (mask == 0 || mask >= (std::uint64_t{1} << n) - 1 || !(y >= 0.0)) {
      return {0.0, "reject " + std::to_string(y) + " on " +
                       coalition.to_string() + ": negative or not proper"};
    }
    total += y;
    weighted += y * g.values()[mask];
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) cover[static_cast<std::size_t>(i)] += y;
    }
  }
  const double lambda =
      std::accumulate(cover.begin(), cover.end(), 0.0) / static_cast<double>(n);
  const auto [lo, hi] = std::minmax_element(cover.begin(), cover.end());
  if (std::abs(total - 1.0) > tolerance ||
      std::max(lambda - *lo, *hi - lambda) > tolerance) {
    return {0.0, "are unbalanced: they sum to " + std::to_string(total) +
                     " and cover players " + std::to_string(*lo) + " to " +
                     std::to_string(*hi)};
  }
  return {weighted - lambda * g.grand_value(), ""};
}

}  // namespace fedshare::verify
