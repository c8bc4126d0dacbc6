#include "core/shapley.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/lattice.hpp"
#include "core/limits.hpp"
#include "exec/pool.hpp"

namespace fedshare::game {

namespace {

// splitmix64: small, fast, deterministic PRNG for permutation sampling.
// (sim/rng.hpp hosts the full RNG suite; core stays dependency-light.)
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform integer in [0, bound) by rejection.
  std::uint64_t below(std::uint64_t bound) noexcept {
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }
};

}  // namespace

std::vector<double> shapley_exact(const Game& game) {
  if (game.num_players() == 0) return {};
  // The lattice kernel accumulates each phi[i] in the same order as the
  // scalar subset formula, so this rewire is bitwise-neutral.
  return shapley_lattice(tabulate(game));
}

std::optional<std::vector<double>> shapley_exact_budgeted(
    const Game& game, const runtime::ComputeBudget& budget) {
  if (game.num_players() == 0) return std::vector<double>{};
  std::optional<TabularGame> storage;
  const TabularGame* tab = borrow_or_tabulate(game, budget, storage);
  if (tab == nullptr) return std::nullopt;
  return shapley_lattice_budgeted(*tab, budget);
}

std::vector<double> shapley_permutations(const Game& game) {
  const int n = game.num_players();
  if (n == 0) return {};
  limits::require("shapley_permutations", n, limits::kMaxPermutationPlayers);
  const TabularGame tab = tabulate(game);

  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> sum(static_cast<std::size_t>(n), 0.0);
  std::uint64_t permutations = 0;
  do {
    Coalition prefix;
    double prev = 0.0;
    for (const int p : order) {
      const Coalition next = prefix.with(p);
      const double val = tab.value(next);
      sum[static_cast<std::size_t>(p)] += val - prev;
      prefix = next;
      prev = val;
    }
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));

  for (double& s : sum) s /= static_cast<double>(permutations);
  return sum;
}

namespace {

// Fixed Monte-Carlo chunking: samples are decomposed into chunks of
// kMcChunkSamples (pairs into kMcChunkPairs), each chunk drawing from
// its own exec::chunk_seed stream and accumulating a private partial.
// Partials are folded in ascending chunk order, so the estimate is
// bit-identical at any thread count (including 1) — the decomposition,
// the streams, and the fold order never depend on the schedule.
constexpr std::uint64_t kMcChunkSamples = 32;
constexpr std::uint64_t kMcChunkPairs = 16;

// The cascade's Monte-Carlo stage (resilient_shapley): permutations
// drawn, their seed, and the grace deadline once the budget has tripped.
constexpr std::uint64_t kCascadeSamples = 4096;
constexpr std::uint64_t kCascadeSeed = 1;
constexpr double kMonteCarloGraceMs = 50.0;

struct McPartial {
  std::vector<double> sum;
  std::vector<double> sum_sq;
  std::uint64_t drawn = 0;
};

// Plain-MC samples with global indices [begin, end) from the chunk's
// stream. Budget: one sample costs n units, charged to `budget` (the
// parent in serial runs, a forked child in parallel runs); returns
// false on a trip, except that the first two global samples always
// complete so the standard errors stay defined.
bool run_mc_chunk(const Game& game, int n, std::uint64_t begin,
                  std::uint64_t end, std::uint64_t stream_seed,
                  const runtime::ComputeBudget* budget, McPartial& out) {
  out.sum.assign(static_cast<std::size_t>(n), 0.0);
  out.sum_sq.assign(static_cast<std::size_t>(n), 0.0);
  out.drawn = 0;
  SplitMix64 rng{stream_seed};
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::uint64_t s = begin; s < end; ++s) {
    if (budget != nullptr &&
        !budget->charge(static_cast<std::uint64_t>(n)) && s >= 2) {
      return false;
    }
    ++out.drawn;
    // Fisher-Yates shuffle.
    for (int i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(i) + 1));
      std::swap(order[static_cast<std::size_t>(i)], order[j]);
    }
    Coalition prefix;
    double prev = 0.0;
    for (const int p : order) {
      const Coalition next = prefix.with(p);
      const double val = game.value(next);
      const double marginal = val - prev;
      out.sum[static_cast<std::size_t>(p)] += marginal;
      out.sum_sq[static_cast<std::size_t>(p)] += marginal * marginal;
      prefix = next;
      prev = val;
    }
  }
  return true;
}

// Antithetic pairs with global indices [begin, end) from the chunk's
// stream. A pair costs 2n units; the first global pair always
// completes.
bool run_antithetic_chunk(const Game& game, int n, std::uint64_t begin,
                          std::uint64_t end, std::uint64_t stream_seed,
                          const runtime::ComputeBudget* budget,
                          McPartial& out) {
  out.sum.assign(static_cast<std::size_t>(n), 0.0);
  out.sum_sq.assign(static_cast<std::size_t>(n), 0.0);
  out.drawn = 0;
  SplitMix64 rng{stream_seed};
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> pair_marginal(static_cast<std::size_t>(n), 0.0);
  for (std::uint64_t p = begin; p < end; ++p) {
    if (budget != nullptr &&
        !budget->charge(2 * static_cast<std::uint64_t>(n)) && p >= 1) {
      return false;
    }
    ++out.drawn;
    for (int i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(i) + 1));
      std::swap(order[static_cast<std::size_t>(i)], order[j]);
    }
    std::fill(pair_marginal.begin(), pair_marginal.end(), 0.0);
    for (int pass = 0; pass < 2; ++pass) {
      Coalition prefix;
      double prev = 0.0;
      for (int k = 0; k < n; ++k) {
        const int player =
            pass == 0 ? order[static_cast<std::size_t>(k)]
                      : order[static_cast<std::size_t>(n - 1 - k)];
        const Coalition next = prefix.with(player);
        const double val = game.value(next);
        pair_marginal[static_cast<std::size_t>(player)] +=
            0.5 * (val - prev);
        prefix = next;
        prev = val;
      }
    }
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      out.sum[ui] += pair_marginal[ui];
      out.sum_sq[ui] += pair_marginal[ui] * pair_marginal[ui];
    }
  }
  return true;
}

// Runs `chunk_fn(range, budget-or-null)` over [0, total) in chunks of
// `chunk_size`, threading forked child budgets through the exec
// executor when a parent budget is present.
template <typename ChunkFn>
void run_mc_chunks(std::uint64_t total, std::uint64_t chunk_size,
                   const runtime::ComputeBudget* budget,
                   const ChunkFn& chunk_fn) {
  if (budget != nullptr) {
    exec::parallel_for_budgeted(
        0, total, chunk_size, *budget,
        [&](const exec::ChunkRange& r, const runtime::ComputeBudget& b) {
          return chunk_fn(r, &b);
        });
  } else {
    exec::parallel_for(0, total, chunk_size,
                       [&](const exec::ChunkRange& r) {
                         return chunk_fn(r, nullptr);
                       });
  }
}

// Ascending-chunk-order fold of the partials (fixed FP rounding).
std::uint64_t fold_partials(const std::vector<McPartial>& partials, int n,
                            std::vector<double>& sum,
                            std::vector<double>& sum_sq) {
  sum.assign(static_cast<std::size_t>(n), 0.0);
  sum_sq.assign(static_cast<std::size_t>(n), 0.0);
  std::uint64_t drawn = 0;
  for (const McPartial& part : partials) {
    if (part.drawn == 0) continue;
    drawn += part.drawn;
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      sum[ui] += part.sum[ui];
      sum_sq[ui] += part.sum_sq[ui];
    }
  }
  return drawn;
}

}  // namespace

MonteCarloShapley shapley_monte_carlo(const Game& game, std::uint64_t samples,
                                      std::uint64_t seed,
                                      const runtime::ComputeBudget* budget) {
  const int n = game.num_players();
  if (samples < 2) {
    throw std::invalid_argument("shapley_monte_carlo: need samples >= 2");
  }
  MonteCarloShapley result;
  result.samples = samples;
  result.phi.assign(static_cast<std::size_t>(n), 0.0);
  result.standard_error.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return result;

  const std::uint64_t base = seed ^ 0xa02bdbf7bb3c0a7ULL;
  const std::uint64_t num_chunks =
      (samples + kMcChunkSamples - 1) / kMcChunkSamples;
  std::vector<McPartial> partials(num_chunks);
  run_mc_chunks(samples, kMcChunkSamples, budget,
                [&](const exec::ChunkRange& r,
                    const runtime::ComputeBudget* b) {
                  return run_mc_chunk(game, n, r.begin, r.end,
                                      exec::chunk_seed(base, r.index), b,
                                      partials[r.index]);
                });

  std::vector<double> sum;
  std::vector<double> sum_sq;
  std::uint64_t drawn = fold_partials(partials, n, sum, sum_sq);
  if (drawn < 2) {
    // A parallel cancellation can skip chunk 0 before its budget-free
    // minimum ran; redo it with an always-tripped budget, which draws
    // exactly the first two samples.
    const runtime::ComputeBudget floor_budget =
        runtime::ComputeBudget().cap_nodes(0);
    run_mc_chunk(game, n, 0, std::min(samples, kMcChunkSamples),
                 exec::chunk_seed(base, 0), &floor_budget, partials[0]);
    drawn = fold_partials(partials, n, sum, sum_sq);
  }

  result.complete = drawn == samples;
  result.samples = drawn;
  const auto count = static_cast<double>(drawn);
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const double mean = sum[ui] / count;
    result.phi[ui] = mean;
    const double variance =
        std::max(0.0, (sum_sq[ui] / count - mean * mean) * count /
                          (count - 1.0));
    result.standard_error[ui] = std::sqrt(variance / count);
  }
  return result;
}

MonteCarloShapley shapley_monte_carlo_antithetic(
    const Game& game, std::uint64_t samples, std::uint64_t seed,
    const runtime::ComputeBudget* budget) {
  const int n = game.num_players();
  if (samples < 2 || samples % 2 != 0) {
    throw std::invalid_argument(
        "shapley_monte_carlo_antithetic: need an even number of samples "
        ">= 2");
  }
  MonteCarloShapley result;
  result.samples = samples;
  result.phi.assign(static_cast<std::size_t>(n), 0.0);
  result.standard_error.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return result;

  const std::uint64_t base = seed ^ 0x9d2c5680aa60ce77ULL;
  const std::uint64_t pairs = samples / 2;
  const std::uint64_t num_chunks =
      (pairs + kMcChunkPairs - 1) / kMcChunkPairs;
  std::vector<McPartial> partials(num_chunks);
  run_mc_chunks(pairs, kMcChunkPairs, budget,
                [&](const exec::ChunkRange& r,
                    const runtime::ComputeBudget* b) {
                  return run_antithetic_chunk(
                      game, n, r.begin, r.end,
                      exec::chunk_seed(base, r.index), b,
                      partials[r.index]);
                });

  std::vector<double> sum;
  std::vector<double> sum_sq;
  std::uint64_t pairs_drawn = fold_partials(partials, n, sum, sum_sq);
  if (pairs_drawn < 1) {
    // See shapley_monte_carlo: guarantee the one-pair minimum even when
    // a parallel cancellation skipped chunk 0.
    const runtime::ComputeBudget floor_budget =
        runtime::ComputeBudget().cap_nodes(0);
    run_antithetic_chunk(game, n, 0, std::min(pairs, kMcChunkPairs),
                         exec::chunk_seed(base, 0), &floor_budget,
                         partials[0]);
    pairs_drawn = fold_partials(partials, n, sum, sum_sq);
  }

  result.complete = pairs_drawn == pairs;
  result.samples = 2 * pairs_drawn;
  const auto count = static_cast<double>(pairs_drawn);
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const double mean = sum[ui] / count;
    result.phi[ui] = mean;
    const double variance =
        count > 1.0
            ? std::max(0.0, (sum_sq[ui] / count - mean * mean) * count /
                                (count - 1.0))
            : 0.0;
    result.standard_error[ui] = std::sqrt(variance / count);
  }
  return result;
}

const char* to_string(ShapleyEngine engine) noexcept {
  switch (engine) {
    case ShapleyEngine::kExact: return "exact";
    case ShapleyEngine::kMonteCarlo: return "monte-carlo";
  }
  return "unknown";
}

ResilientShapley resilient_shapley(const Game& game,
                                   const runtime::ComputeBudget& budget) {
  ResilientShapley out;
  std::string cause;
  const int n = game.num_players();
  if (!limits::exceeds(n, limits::kMaxTablePlayers)) {
    if (auto exact = shapley_exact_budgeted(game, budget)) {
      out.phi = std::move(*exact);
      return out;
    }
    cause = std::string("exact Shapley budget exhausted (") +
            runtime::stop_label(budget) + ")";
  } else {
    cause = limits::refusal("exact Shapley", n, limits::kMaxTablePlayers);
  }

  // Monte-Carlo fallback. If the caller's budget already tripped, run
  // under a short grace deadline instead — long enough for a meaningful
  // estimate, short enough that "degrade" still means "answer promptly".
  const runtime::ComputeBudget grace =
      runtime::ComputeBudget::with_deadline_ms(kMonteCarloGraceMs);
  const runtime::ComputeBudget* mc_budget =
      budget.exhausted() ? &grace : &budget;
  const MonteCarloShapley mc = shapley_monte_carlo_antithetic(
      game, kCascadeSamples, kCascadeSeed, mc_budget);
  out.engine = ShapleyEngine::kMonteCarlo;
  out.phi = mc.phi;
  out.standard_error = mc.standard_error;
  out.samples = mc.samples;
  double max_se = 0.0;
  for (const double se : mc.standard_error) max_se = std::max(max_se, se);
  std::ostringstream note;
  note << cause << "; antithetic monte-carlo (" << mc.samples
       << " samples, max se " << max_se << ")";
  out.note = note.str();
  return out;
}

std::vector<double> normalize_shares(const std::vector<double>& values) {
  const double total = std::accumulate(values.begin(), values.end(), 0.0);
  std::vector<double> out(values.size());
  if (values.empty()) return out;
  if (std::abs(total) < 1e-12) {
    std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(out.size()));
    return out;
  }
  for (std::size_t i = 0; i < values.size(); ++i) out[i] = values[i] / total;
  return out;
}

}  // namespace fedshare::game
