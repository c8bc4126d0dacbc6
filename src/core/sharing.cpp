#include "core/sharing.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/banzhaf.hpp"
#include "core/core_solution.hpp"
#include "core/limits.hpp"
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

const char* in_core_label(const SchemeOutcome& outcome) noexcept {
  if (!outcome.in_core.has_value()) return "n/a";
  return *outcome.in_core ? "yes" : "no";
}

std::string SkippedScheme::note() const {
  return scheme + ": skipped (" + reason + ")";
}

std::vector<std::string> SchemeComparison::notes() const {
  std::vector<std::string> out;
  if (!shapley_note.empty()) out.push_back("shapley: " + shapley_note);
  for (const SkippedScheme& s : skipped) out.push_back(s.note());
  return out;
}

bool SchemeComparison::cut_short() const noexcept {
  if (shapley_engine == ShapleyEngine::kMonteCarlo) return true;
  return std::any_of(skipped.begin(), skipped.end(),
                     [](const SkippedScheme& s) { return !s.size_limit; });
}

SchemeComparison compare_schemes(
    const Game& game, const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const lp::SimplexOptions& lp_options, const PlayerPartition* partition,
    QuotientNucleolusInfo* info) {
  const int n = game.num_players();
  for (const auto* weights : {&availability_weights, &consumption_weights}) {
    if (!weights->empty() && weights->size() != static_cast<std::size_t>(n)) {
      throw std::invalid_argument(
          "compare_schemes: weight counts must equal n");
    }
  }
  const runtime::ComputeBudget unlimited;
  const runtime::ComputeBudget& budget =
      lp_options.budget != nullptr ? *lp_options.budget : unlimited;
  // Tabulate once: every scheme below (Shapley, the per-scheme core
  // checks, nucleolus, Banzhaf) re-reads the same table instead of
  // re-solving each coalition's V(S); a TabularGame input is borrowed,
  // not copied. Without a table only the schemes that need none answer.
  std::optional<TabularGame> tabulated;
  const TabularGame* tab = borrow_or_tabulate(game, budget, tabulated);
  const Game& values = tab ? static_cast<const Game&>(*tab) : game;
  const double total = values.grand_value();
  const std::string no_table =
      std::string("coalition table unavailable under ") +
      runtime::stop_label(budget);

  SchemeComparison out;
  auto push = [&](Scheme scheme, std::vector<double> shares,
                  bool check_core = true) {
    SchemeOutcome o;
    o.scheme = scheme;
    o.payoffs.resize(shares.size());
    for (std::size_t i = 0; i < shares.size(); ++i) {
      o.payoffs[i] = shares[i] * total;
    }
    o.shares = std::move(shares);
    if (check_core && tab && !limits::exceeds(n, limits::kMaxCorePlayers)) {
      o.in_core = in_core(*tab, o.payoffs);
    }
    out.outcomes.push_back(std::move(o));
  };

  ResilientShapley shapley = resilient_shapley(values, budget);
  out.shapley_engine = shapley.engine;
  out.shapley_samples = shapley.samples;
  for (const double se : shapley.standard_error) {
    out.shapley_max_se = std::max(out.shapley_max_se, se);
  }
  out.shapley_note = std::move(shapley.note);
  // A Monte-Carlo row's core verdict would judge the estimate, not the
  // Shapley value, so it stays unchecked.
  push(Scheme::kShapley, normalize_shares(shapley.phi),
       shapley.engine == ShapleyEngine::kExact);
  if (!availability_weights.empty()) {
    push(Scheme::kProportionalAvailability,
         proportional_shares(availability_weights));
  }
  if (!consumption_weights.empty()) {
    push(Scheme::kProportionalConsumption,
         proportional_shares(consumption_weights));
  }
  push(Scheme::kEqual, equal_shares(n));

  // Nucleolus: the orbit-row formulation for a non-trivial partition,
  // the dense one otherwise. A missing table, either formulation past
  // kMaxExcessRows or a spent budget is a recorded skip.
  const bool quotient_path = partition != nullptr && !partition->is_trivial();
  if (!tab) {
    out.skipped.push_back({"nucleolus", no_table});
  } else if (const std::uint64_t rows = quotient_path
                                            ? partition->orbit_count() - 2
                                            : (std::uint64_t{1} << n) - 2;
             limits::exceeds(rows, limits::kMaxExcessRows)) {
    out.skipped.push_back(
        {"nucleolus", excess_rows_refusal(rows), /*size_limit=*/true});
  } else if (budget.exhausted()) {
    out.skipped.push_back({"nucleolus", runtime::stop_label(budget)});
  } else {
    NucleolusResult r;
    if (quotient_path) {
      const QuotientGame quotient(*tab, *partition);
      r = nucleolus_quotient(quotient, lp_options);
      if (info != nullptr) {
        info->attempted = true;
        info->used = r.solved;
        info->orbit_rows = r.excess_rows;
        info->dense_rows = (std::uint64_t{1} << n) - 2;
        info->lps_solved = r.lps_solved;
        info->pivots = r.pivots;
        const auto stats = quotient.cache().stats();
        info->orbit_hits = stats.hits;
        info->orbit_misses = stats.misses;
      }
    } else {
      r = nucleolus(*tab, lp_options);
    }
    if (r.solved) {
      push(Scheme::kNucleolus, nucleolus_fractions(r.allocation, total, n));
    } else {
      out.skipped.push_back({"nucleolus", budget.exhausted()
                                              ? runtime::stop_label(budget)
                                              : "LP chain failed"});
    }
  }

  if (tab) {
    push(Scheme::kBanzhaf, banzhaf_index(*tab));
  } else {
    out.skipped.push_back({"banzhaf", no_table});
  }
  if (!tab) {
    out.skipped.push_back({"core membership", no_table});
  } else if (limits::exceeds(n, limits::kMaxCorePlayers)) {
    out.skipped.push_back(
        {"core membership",
         limits::refusal("compare_schemes", n, limits::kMaxCorePlayers),
         /*size_limit=*/true});
  }
  return out;
}

}  // namespace fedshare::game
