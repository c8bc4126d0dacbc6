#include "runtime/outage.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/game.hpp"
#include "exec/pool.hpp"
#include "sim/rng.hpp"

namespace fedshare::runtime {

namespace {

// Independent stream per (seed, scenario): golden-ratio stride keeps the
// splitmix inputs well separated even for consecutive scenario indices.
sim::Xoshiro256 scenario_rng(std::uint64_t seed, std::uint64_t scenario) {
  sim::SplitMix64 mix(seed ^ (scenario * 0x9e3779b97f4a7c15ULL +
                              0x2545f4914f6cdd1dULL));
  return sim::Xoshiro256(mix.next());
}

double quantile(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double pos = p * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// One facility's mask: each of `count` locations is up when its draw
// is below T_i. uniform() < 1.0 always holds, so T_i = 1 means never
// down, exactly, not just in expectation.
std::vector<bool> draw_mask(sim::Xoshiro256& rng, std::size_t count,
                            double availability) {
  std::vector<bool> mask(count);
  for (std::size_t k = 0; k < count; ++k) {
    mask[k] = rng.uniform() < availability;
  }
  return mask;
}

}  // namespace

OutageScenario OutageModel::sample(const model::LocationSpace& space,
                                   std::uint64_t scenario) const {
  sim::Xoshiro256 rng = scenario_rng(seed_, scenario);
  OutageScenario s;
  s.up.reserve(static_cast<std::size_t>(space.num_facilities()));
  for (int i = 0; i < space.num_facilities(); ++i) {
    s.up.push_back(draw_mask(rng, space.locations_of(i).size(),
                             space.facility(i).availability()));
  }
  return s;
}

std::vector<bool> OutageModel::sample_locations(std::uint64_t scenario,
                                                std::size_t skip,
                                                std::size_t count,
                                                double availability) const {
  sim::Xoshiro256 rng = scenario_rng(seed_, scenario);
  for (std::size_t k = 0; k < skip; ++k) (void)rng.next();
  return draw_mask(rng, count, availability);
}

model::LocationSpace OutageModel::degrade(const model::LocationSpace& space,
                                          std::uint64_t scenario) const {
  return space.with_outages(sample(space, scenario).up);
}

OutageStats summarize(std::vector<double> samples) {
  OutageStats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  stats.mean = sum / static_cast<double>(samples.size());
  stats.q05 = quantile(samples, 0.05);
  stats.q50 = quantile(samples, 0.50);
  stats.q95 = quantile(samples, 0.95);
  stats.min = samples.front();
  stats.max = samples.back();
  return stats;
}

OutageReport evaluate_outages(const model::Federation& fed, int scenarios,
                              std::uint64_t seed,
                              const ComputeBudget& budget) {
  if (scenarios < 1) {
    throw std::invalid_argument("evaluate_outages: scenarios must be >= 1");
  }
  const int n = fed.num_facilities();

  OutageReport report;
  report.seed = seed;
  report.scenarios_requested = scenarios;

  const OutageModel model(seed);
  std::vector<double> grand_samples;
  // Per-scheme accumulators, laid out like the first scenario's outcome
  // list (the scheme sequence is deterministic for a fixed n once every
  // scenario completed cleanly — degraded scenarios are discarded below
  // precisely so these stay comparable).
  struct Acc {
    game::Scheme scheme;
    std::vector<std::vector<double>> shares;   // [facility][scenario]
    std::vector<std::vector<double>> payoffs;  // [facility][scenario]
    int in_core_count = 0;
  };
  std::vector<Acc> accs;

  // Scenarios are independent — each has its own RNG stream — so they
  // evaluate in parallel, one result slot per scenario. Aggregation
  // below consumes the contiguous prefix of clean scenarios in index
  // order, which reproduces the serial early-break semantics: a budget
  // trip or degraded scenario truncates the evaluation at its index.
  struct ScenarioResult {
    bool ok = false;
    double grand = 0.0;
    game::SchemeComparison rs;
  };
  std::vector<ScenarioResult> results(static_cast<std::size_t>(scenarios));
  exec::parallel_for_budgeted(
      0, static_cast<std::uint64_t>(scenarios), 1, budget,
      [&](const exec::ChunkRange& r, const ComputeBudget& b) {
        const auto k = r.begin;  // chunk size 1: one scenario per chunk
        if (b.exhausted()) return false;
        model::Federation degraded(model.degrade(fed.space(), k),
                                   fed.demand());
        const auto tab =
            degraded.build_game_budgeted(game::SymmetryMode::kOff, b);
        if (!tab) return false;
        ScenarioResult& slot = results[k];
        lp::SimplexOptions lp_options;
        lp_options.budget = &b;
        slot.rs = game::compare_schemes(*tab, degraded.availability_weights(),
                                        degraded.consumption_weights(),
                                        lp_options);
        // All-or-nothing per scenario: a computation the budget cut
        // short, or one without core checks, would make this scenario's
        // rows incomparable with the rest, so it is discarded and the
        // evaluation stops at the truncation point. A nucleolus ruled
        // out by size is the same in every scenario and keeps it.
        const bool core_checked = std::all_of(
            slot.rs.outcomes.begin(), slot.rs.outcomes.end(),
            [](const game::SchemeOutcome& o) { return o.in_core.has_value(); });
        if (slot.rs.cut_short() || !core_checked) return false;
        slot.grand = tab->grand_value();
        slot.ok = true;
        return true;
      });

  for (std::size_t k = 0;
       k < results.size() && results[k].ok; ++k) {
    const game::SchemeComparison& rs = results[k].rs;
    if (accs.empty()) {
      accs.resize(rs.outcomes.size());
      for (std::size_t j = 0; j < rs.outcomes.size(); ++j) {
        accs[j].scheme = rs.outcomes[j].scheme;
        accs[j].shares.resize(static_cast<std::size_t>(n));
        accs[j].payoffs.resize(static_cast<std::size_t>(n));
      }
    } else if (accs.size() != rs.outcomes.size()) {
      break;  // defensive: scheme set changed mid-run
    }

    grand_samples.push_back(results[k].grand);
    for (std::size_t j = 0; j < rs.outcomes.size(); ++j) {
      const auto& o = rs.outcomes[j];
      for (int i = 0; i < n; ++i) {
        const auto fi = static_cast<std::size_t>(i);
        accs[j].shares[fi].push_back(o.shares[fi]);
        accs[j].payoffs[fi].push_back(o.payoffs[fi]);
      }
      if (o.in_core.value()) ++accs[j].in_core_count;
    }
    ++report.scenarios_evaluated;
  }

  report.grand_value = summarize(grand_samples);
  report.schemes.reserve(accs.size());
  for (auto& acc : accs) {
    SchemeOutageReport sr;
    sr.scheme = acc.scheme;
    sr.shares.reserve(static_cast<std::size_t>(n));
    sr.payoffs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto fi = static_cast<std::size_t>(i);
      sr.shares.push_back(summarize(std::move(acc.shares[fi])));
      sr.payoffs.push_back(summarize(std::move(acc.payoffs[fi])));
    }
    if (report.scenarios_evaluated > 0) {
      sr.core_fraction = static_cast<double>(acc.in_core_count) /
                         static_cast<double>(report.scenarios_evaluated);
    }
    report.schemes.push_back(std::move(sr));
  }
  return report;
}

}  // namespace fedshare::runtime
