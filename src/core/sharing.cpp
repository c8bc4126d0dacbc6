#include "core/sharing.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/banzhaf.hpp"
#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/shapley.hpp"

namespace fedshare::game {

namespace {

// Nucleolus payoffs as shares of V(N); equal shares when V(N) is ~0.
std::vector<double> nucleolus_fractions(const std::vector<double>& allocation,
                                        double total, int n) {
  if (std::abs(total) < 1e-12) return equal_shares(n);
  std::vector<double> out(allocation.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = allocation[i] / total;
  return out;
}

}  // namespace

const char* to_string(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kShapley: return "shapley";
    case Scheme::kProportionalAvailability: return "prop-availability";
    case Scheme::kProportionalConsumption: return "prop-consumption";
    case Scheme::kEqual: return "equal";
    case Scheme::kNucleolus: return "nucleolus";
    case Scheme::kBanzhaf: return "banzhaf";
  }
  return "unknown";
}

std::vector<double> equal_shares(int num_players) {
  if (num_players < 1) {
    throw std::invalid_argument("equal_shares: need at least one player");
  }
  return std::vector<double>(static_cast<std::size_t>(num_players),
                             1.0 / num_players);
}

std::vector<double> proportional_shares(const std::vector<double>& weights) {
  if (weights.empty()) {
    throw std::invalid_argument("proportional_shares: empty weights");
  }
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument(
          "proportional_shares: weights must be non-negative");
    }
    total += w;
  }
  if (total < 1e-12) return equal_shares(static_cast<int>(weights.size()));
  std::vector<double> out(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) out[i] = weights[i] / total;
  return out;
}

std::vector<double> shapley_shares(const Game& game) {
  return normalize_shares(shapley_exact(game));
}

std::vector<double> nucleolus_shares(const Game& game) {
  return nucleolus_shares(game, lp::SimplexOptions{});
}

std::vector<double> nucleolus_shares(const Game& game,
                                     const lp::SimplexOptions& options) {
  const NucleolusResult r = nucleolus(game, options);
  if (!r.solved) {
    throw std::runtime_error("nucleolus_shares: computation failed");
  }
  return nucleolus_fractions(r.allocation, game.grand_value(),
                             game.num_players());
}

NucleolusScheme nucleolus_scheme(const TabularGame& tab,
                                 const lp::SimplexOptions& options,
                                 const PlayerPartition* partition,
                                 QuotientNucleolusInfo* info) {
  const int n = tab.num_players();
  const bool quotient_path = partition != nullptr && !partition->is_trivial();
  NucleolusScheme out;
  if (!quotient_path && !dense_nucleolus_fits(n)) {
    out.size_limit = "n = " + std::to_string(n) +
                     " exceeds the dense ceiling of " +
                     std::to_string(kMaxDenseNucleolusPlayers) +
                     "; use --symmetry auto|exact";
    return out;
  }
  if (options.budget != nullptr && options.budget->exhausted()) return out;
  NucleolusResult r;
  if (quotient_path) {
    const QuotientGame quotient(tab, *partition);
    r = nucleolus_quotient(quotient, options);
    if (info != nullptr) {
      info->attempted = true;
      info->used = r.solved;
      info->orbit_rows = r.excess_rows;
      info->dense_rows = n < 63 ? (std::uint64_t{1} << n) - 2 : 0;
      info->lps_solved = r.lps_solved;
      info->pivots = r.pivots;
      const auto stats = quotient.cache().stats();
      info->orbit_hits = stats.hits;
      info->orbit_misses = stats.misses;
    }
  } else {
    r = nucleolus(tab, options);
  }
  if (r.solved) {
    out.shares = nucleolus_fractions(r.allocation, tab.grand_value(), n);
  }
  return out;
}

std::vector<SchemeOutcome> compare_schemes(
    const Game& game, const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights) {
  return compare_schemes(game, availability_weights, consumption_weights,
                         lp::SimplexOptions{});
}

std::vector<SchemeOutcome> compare_schemes(
    const Game& game, const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const lp::SimplexOptions& lp_options) {
  return compare_schemes(game, availability_weights, consumption_weights,
                         lp_options, nullptr, nullptr);
}

std::vector<SchemeOutcome> compare_schemes(
    const Game& game, const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const lp::SimplexOptions& lp_options, const PlayerPartition* partition,
    QuotientNucleolusInfo* info) {
  const int n = game.num_players();
  // Tabulate once: every scheme below (Shapley, the per-scheme core
  // checks, nucleolus, Banzhaf) re-reads the same table instead of
  // re-solving each coalition's V(S), and tabulate()'s TabularGame
  // fast path makes the nested tabulations inside those solvers free.
  const TabularGame tab = tabulate(game);
  const double total = tab.grand_value();

  std::vector<SchemeOutcome> out;
  auto push = [&](Scheme scheme, std::vector<double> shares) {
    SchemeOutcome o;
    o.scheme = scheme;
    o.payoffs.resize(shares.size());
    for (std::size_t i = 0; i < shares.size(); ++i) {
      o.payoffs[i] = shares[i] * total;
    }
    o.shares = std::move(shares);
    if (n <= 16) o.in_core = in_core(tab, o.payoffs);
    out.push_back(std::move(o));
  };

  push(Scheme::kShapley, shapley_shares(tab));
  if (!availability_weights.empty()) {
    if (availability_weights.size() != static_cast<std::size_t>(n)) {
      throw std::invalid_argument(
          "compare_schemes: availability weight count must equal n");
    }
    push(Scheme::kProportionalAvailability,
         proportional_shares(availability_weights));
  }
  if (!consumption_weights.empty()) {
    if (consumption_weights.size() != static_cast<std::size_t>(n)) {
      throw std::invalid_argument(
          "compare_schemes: consumption weight count must equal n");
    }
    push(Scheme::kProportionalConsumption,
         proportional_shares(consumption_weights));
  }
  push(Scheme::kEqual, equal_shares(n));
  NucleolusScheme nucleolus_row =
      nucleolus_scheme(tab, lp_options, partition, info);
  if (!nucleolus_row.shares.empty()) {
    push(Scheme::kNucleolus, std::move(nucleolus_row.shares));
  } else if (nucleolus_row.size_limit.empty()) {
    throw std::runtime_error("compare_schemes: nucleolus computation failed");
  }
  push(Scheme::kBanzhaf, banzhaf_index(tab));
  return out;
}

}  // namespace fedshare::game
