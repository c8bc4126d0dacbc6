// A2/A5 microbenchmarks: Shapley engines and the game pipeline.
//
// Besides the google-benchmark timings, the binary writes a
// machine-readable BENCH_shapley.json summary (override the path with
// FEDSHARE_BENCH_OUT) comparing the three exact engines on typed games
// for n = 8..20: the historical scalar subset formula, the cache-blocked
// lattice kernel (core/lattice.hpp), and the symmetry-quotient formula
// (core/symmetry.hpp), with max-abs-diff columns pinning agreement.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/lattice.hpp"
#include "core/shapley.hpp"
#include "core/symmetry.hpp"
#include "model/federation.hpp"

namespace {

using namespace fedshare;

game::TabularGame make_game(int n) {
  std::vector<model::FacilityConfig> configs;
  for (int i = 0; i < n; ++i) {
    model::FacilityConfig cfg;
    cfg.name = "F" + std::to_string(i);
    cfg.num_locations = 20 + 10 * (i % 5);
    cfg.units_per_location = 1.0 + (i % 3);
    configs.push_back(cfg);
  }
  model::Federation fed(model::LocationSpace::disjoint(configs),
                        model::DemandProfile::uniform(20, 80.0));
  return fed.build_game();
}

void BM_ShapleyExact(benchmark::State& state) {
  const auto g = make_game(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::shapley_exact(g));
  }
}
BENCHMARK(BM_ShapleyExact)->Arg(4)->Arg(8)->Arg(12);

void BM_ShapleyPermutations(benchmark::State& state) {
  const auto g = make_game(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::shapley_permutations(g));
  }
}
BENCHMARK(BM_ShapleyPermutations)->Arg(4)->Arg(6)->Arg(8);

void BM_ShapleyMonteCarlo(benchmark::State& state) {
  const auto g = make_game(12);
  const auto samples = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::shapley_monte_carlo(g, samples, 3));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          state.iterations());
}
BENCHMARK(BM_ShapleyMonteCarlo)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BuildGame(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<model::FacilityConfig> configs;
  for (int i = 0; i < n; ++i) {
    model::FacilityConfig cfg;
    cfg.name = "F" + std::to_string(i);
    cfg.num_locations = 20 + 10 * (i % 5);
    cfg.units_per_location = 1.0 + (i % 3);
    configs.push_back(cfg);
  }
  model::Federation fed(model::LocationSpace::disjoint(configs),
                        model::DemandProfile::uniform(20, 80.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fed.build_game());
  }
}
BENCHMARK(BM_BuildGame)->Arg(4)->Arg(8)->Arg(12);

// --- exact vs lattice vs quotient ----------------------------------------

// A typed game with 4 facility types (players i share type i % 4): the
// value depends only on the per-type counts, so both the lattice kernel
// and the quotient formula apply. Cheap enough to tabulate at n = 20.
game::PlayerPartition typed_partition(int n) {
  std::vector<int> type_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) type_of[static_cast<std::size_t>(i)] = i % 4;
  return game::PlayerPartition::from_type_of(type_of);
}

game::FunctionGame typed_game(const game::PlayerPartition& partition) {
  return game::FunctionGame(
      partition.num_players(), [partition](game::Coalition s) {
        std::vector<int> counts(
            static_cast<std::size_t>(partition.num_types()), 0);
        for (const int i : s.members()) {
          ++counts[static_cast<std::size_t>(partition.type_of(i))];
        }
        double acc = 0.0;
        int total = 0;
        for (int t = 0; t < partition.num_types(); ++t) {
          const double c = counts[static_cast<std::size_t>(t)];
          acc += std::sqrt(c * (t + 2.0));
          total += counts[static_cast<std::size_t>(t)];
        }
        return acc + 0.125 * total * total;
      });
}

// The historical O(n 2^n) scalar subset formula, kept inline as the
// reference the kernels replaced.
std::vector<double> shapley_scalar(const game::TabularGame& tab) {
  const int n = tab.num_players();
  const std::vector<double>& v = tab.values();
  const std::vector<double> w = game::shapley_subset_weights(n);
  std::vector<double> phi(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    double sum = 0.0;
    for (std::uint64_t mask = 0; mask < v.size(); ++mask) {
      if (mask & bit) continue;
      sum += w[static_cast<std::size_t>(std::popcount(mask))] *
             (v[mask | bit] - v[mask]);
    }
    phi[static_cast<std::size_t>(i)] = sum;
  }
  return phi;
}

void BM_ShapleyScalarReference(benchmark::State& state) {
  const auto partition = typed_partition(static_cast<int>(state.range(0)));
  const auto tab = game::tabulate(typed_game(partition));
  for (auto _ : state) {
    benchmark::DoNotOptimize(shapley_scalar(tab));
  }
}
BENCHMARK(BM_ShapleyScalarReference)->Arg(12)->Arg(16);

void BM_ShapleyLattice(benchmark::State& state) {
  const auto partition = typed_partition(static_cast<int>(state.range(0)));
  const auto tab = game::tabulate(typed_game(partition));
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::shapley_lattice(tab));
  }
}
BENCHMARK(BM_ShapleyLattice)->Arg(12)->Arg(16);

void BM_ShapleyQuotient(benchmark::State& state) {
  const auto partition = typed_partition(static_cast<int>(state.range(0)));
  const auto base = typed_game(partition);
  for (auto _ : state) {
    // Includes the per-orbit evaluation: the quotient never tabulates.
    const game::QuotientGame quotient(base, partition);
    benchmark::DoNotOptimize(quotient.shapley());
  }
}
BENCHMARK(BM_ShapleyQuotient)->Arg(12)->Arg(16);

// --- BENCH_shapley.json ---------------------------------------------------

double median_ms(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

template <typename Fn>
double time_ms(const Fn& fn, int reps) {
  std::vector<double> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    runs.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return median_ms(std::move(runs));
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

struct EngineRow {
  int n = 0;
  std::uint64_t orbits = 0;
  double scalar_ms = 0.0;
  double lattice_ms = 0.0;
  double quotient_ms = 0.0;
  double lattice_diff = 0.0;   ///< max |lattice - scalar| (must be 0)
  double quotient_diff = 0.0;  ///< max |quotient - scalar|
};

EngineRow measure_engines(int n, int reps) {
  const game::PlayerPartition partition = typed_partition(n);
  const game::FunctionGame base = typed_game(partition);
  const game::TabularGame tab = game::tabulate(base);
  EngineRow row;
  row.n = n;
  row.orbits = partition.orbit_count();
  const std::vector<double> scalar = shapley_scalar(tab);
  const std::vector<double> lattice = game::shapley_lattice(tab);
  const game::QuotientGame quotient(base, partition);
  const std::vector<double> quick = quotient.shapley();
  row.lattice_diff = max_abs_diff(scalar, lattice);
  row.quotient_diff = max_abs_diff(scalar, quick);
  row.scalar_ms = time_ms([&] { shapley_scalar(tab); }, reps);
  row.lattice_ms = time_ms(
      [&] { benchmark::DoNotOptimize(game::shapley_lattice(tab)); }, reps);
  row.quotient_ms = time_ms(
      [&] {
        const game::QuotientGame q(base, partition);
        benchmark::DoNotOptimize(q.shapley());
      },
      reps);
  return row;
}

void write_summary_json() {
  std::vector<EngineRow> rows;
  for (const int n : {8, 12, 16, 20}) {
    rows.push_back(measure_engines(n, n >= 16 ? 1 : 3));
  }

  const char* out_env = std::getenv("FEDSHARE_BENCH_OUT");
  const std::string path =
      out_env != nullptr && *out_env != '\0' ? out_env : "BENCH_shapley.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perf_shapley: cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"shapley\",\n";
  out << "  \"workload\": \"typed game (4 types, players i type i%4): "
         "scalar subset formula vs lattice kernel vs symmetry "
         "quotient\",\n";
  out << "  \"engines\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& r = rows[i];
    const double speedup =
        r.quotient_ms > 0.0 ? r.scalar_ms / r.quotient_ms : 0.0;
    out << "    {\"n\": " << r.n << ", \"masks\": " << (1u << r.n)
        << ", \"orbits\": " << r.orbits
        << ", \"scalar_ms\": " << r.scalar_ms
        << ", \"lattice_ms\": " << r.lattice_ms
        << ", \"quotient_ms\": " << r.quotient_ms
        << ", \"scalar_over_quotient\": " << speedup
        << ", \"max_abs_diff_lattice\": " << r.lattice_diff
        << ", \"max_abs_diff_quotient\": " << r.quotient_diff << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::cout << "(summary written to " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_summary_json();
  return 0;
}
