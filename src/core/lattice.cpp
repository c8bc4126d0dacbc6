#include "core/lattice.hpp"

#include <cmath>
#include <stdexcept>

#include "core/lattice_simd.hpp"
#include "core/limits.hpp"
#include "exec/pool.hpp"

namespace fedshare::game {

namespace {

// Slot pairs per parallel chunk in a transform bit pass. Large chunks:
// the per-pair body is two loads and one add, so the chunk must
// amortise the scheduling overhead.
constexpr std::uint64_t kTransformChunk = 1u << 14;

void check_table(const std::vector<double>& values, int num_players) {
  if (num_players < 0) throw std::invalid_argument("lattice: n < 0");
  limits::require("lattice", num_players, limits::kMaxTablePlayers);
  if (values.size() != (std::size_t{1} << num_players)) {
    throw std::invalid_argument("lattice: need exactly 2^n values");
  }
}

// The lo slot of pair `p` in the pass for `bit`: the 2^(n-1) masks with
// that bit clear, in ascending mask order (insert a zero bit at
// position `bit`).
inline std::uint64_t lo_of_pair(std::uint64_t p, int bit) noexcept {
  const std::uint64_t low = p & ((std::uint64_t{1} << bit) - 1);
  return ((p >> bit) << (bit + 1)) | low;
}

}  // namespace

void moebius_transform(std::vector<double>& values, int num_players) {
  check_table(values, num_players);
  const std::uint64_t half =
      num_players > 0 ? std::uint64_t{1} << (num_players - 1) : 0;
  for (int bit = 0; bit < num_players; ++bit) {
    exec::parallel_for(0, half, kTransformChunk,
                       [&](const exec::ChunkRange& r) {
                         simd::sub_pass(values.data(), r.begin, r.end, bit);
                         return true;
                       });
  }
}

std::vector<double> shapley_subset_weights(int num_players) {
  if (num_players < 0) {
    throw std::invalid_argument("shapley_subset_weights: n < 0");
  }
  limits::require("shapley_subset_weights", num_players,
                  limits::kMaxTablePlayers);
  const int n = num_players;
  std::vector<double> log_fact(static_cast<std::size_t>(n) + 1, 0.0);
  for (int k = 2; k <= n; ++k) {
    log_fact[static_cast<std::size_t>(k)] =
        log_fact[static_cast<std::size_t>(k - 1)] + std::log(k);
  }
  std::vector<double> weight(static_cast<std::size_t>(n), 0.0);
  for (int s = 0; s < n; ++s) {
    weight[static_cast<std::size_t>(s)] = std::exp(
        log_fact[static_cast<std::size_t>(s)] +
        log_fact[static_cast<std::size_t>(n - s - 1)] -
        log_fact[static_cast<std::size_t>(n)]);
  }
  return weight;
}

namespace {

// Per-player marginal pass: accumulates player i's sum over the masks
// without i in ascending mask order — the scalar subset formula's exact
// accumulation sequence for phi[i]. `weight` is null for Banzhaf
// (uniform scale applied by the caller). Scalar reference; the
// unbudgeted entry points below go through simd::marginal_sum instead.
double marginal_pass(const std::vector<double>& v, int num_players, int i,
                     const std::vector<double>* weight, double scale) {
  const std::uint64_t half = std::uint64_t{1} << (num_players - 1);
  const std::uint64_t bit = std::uint64_t{1} << i;
  double acc = 0.0;
  for (std::uint64_t u = 0; u < half; ++u) {
    const std::uint64_t mask = lo_of_pair(u, i);
    const double w =
        weight != nullptr
            ? (*weight)[static_cast<std::size_t>(__builtin_popcountll(mask))]
            : scale;
    acc += w * (v[mask | bit] - v[mask]);
  }
  return acc;
}

// Pair-indexed weight table shared by every player's marginal pass:
// wvec[u] = weight[popcount(u)]. Inserting the player's zero bit into u
// never changes the popcount, so the one table serves all n passes.
std::vector<double> pair_weights(const std::vector<double>& weight, int n) {
  const std::uint64_t half = std::uint64_t{1} << (n - 1);
  std::vector<double> wvec(half);
  exec::parallel_for(0, half, kTransformChunk,
                     [&](const exec::ChunkRange& r) {
                       for (std::uint64_t u = r.begin; u < r.end; ++u) {
                         wvec[u] = weight[static_cast<std::size_t>(
                             __builtin_popcountll(u))];
                       }
                       return true;
                     });
  return wvec;
}

}  // namespace

std::vector<double> shapley_lattice(const TabularGame& tab) {
  const int n = tab.num_players();
  if (n == 0) return {};
  const std::vector<double>& v = tab.values();
  const std::vector<double> weight = shapley_subset_weights(n);
  const std::vector<double> wvec = pair_weights(weight, n);
  std::vector<double> phi(static_cast<std::size_t>(n), 0.0);
  exec::parallel_for(0, static_cast<std::uint64_t>(n), 1,
                     [&](const exec::ChunkRange& r) {
                       for (std::uint64_t i = r.begin; i < r.end; ++i) {
                         phi[i] = simd::marginal_sum(
                             v.data(), n, static_cast<int>(i), wvec.data(),
                             0.0);
                       }
                       return true;
                     });
  return phi;
}

std::optional<std::vector<double>> shapley_lattice_budgeted(
    const TabularGame& tab, const runtime::ComputeBudget& budget) {
  const int n = tab.num_players();
  if (n == 0) return std::vector<double>{};
  const std::vector<double>& v = tab.values();
  const std::vector<double> weight = shapley_subset_weights(n);
  const std::uint64_t half = std::uint64_t{1} << (n - 1);
  std::vector<double> phi(static_cast<std::size_t>(n), 0.0);
  const bool ok = exec::parallel_for_budgeted(
      0, static_cast<std::uint64_t>(n), 1, budget,
      [&](const exec::ChunkRange& r, const runtime::ComputeBudget& b) {
        for (std::uint64_t i = r.begin; i < r.end; ++i) {
          if (!b.charge(half)) return false;
          phi[i] = marginal_pass(v, n, static_cast<int>(i), &weight, 0.0);
        }
        return true;
      });
  if (!ok) return std::nullopt;
  return phi;
}

std::vector<double> banzhaf_lattice(const TabularGame& tab) {
  const int n = tab.num_players();
  if (n < 1) throw std::invalid_argument("banzhaf_lattice: n < 1");
  const std::vector<double>& v = tab.values();
  const double scale = 1.0 / static_cast<double>(std::uint64_t{1} << (n - 1));
  std::vector<double> beta(static_cast<std::size_t>(n), 0.0);
  exec::parallel_for(0, static_cast<std::uint64_t>(n), 1,
                     [&](const exec::ChunkRange& r) {
                       for (std::uint64_t i = r.begin; i < r.end; ++i) {
                         beta[i] = simd::marginal_sum(
                             v.data(), n, static_cast<int>(i), nullptr,
                             scale);
                       }
                       return true;
                     });
  return beta;
}

std::vector<double> dividends_lattice(const TabularGame& tab) {
  std::vector<double> d = tab.values();
  moebius_transform(d, tab.num_players());
  return d;
}

}  // namespace fedshare::game
