// Parallel-execution benchmarks: tabulation and Monte-Carlo Shapley
// speedup across exec thread counts, plus the coalition-value cache's
// hit rate. Besides the google-benchmark output, the binary writes a
// machine-readable BENCH_parallel.json summary (override the path with
// FEDSHARE_BENCH_OUT) so speedup datapoints can be tracked across
// commits and machines.
//
// `--smoke`: a fast determinism gate — the tabulated game (the closed
// federation table and the raw function tabulated by game::tabulate)
// must be bitwise identical at 1 and 4 threads; exits non-zero
// otherwise. tools/check.sh and CI run it next to the other layer
// smokes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/game.hpp"
#include "core/shapley.hpp"
#include "exec/pool.hpp"
#include "model/federation.hpp"
#include "model/value.hpp"

namespace {

using namespace fedshare;

constexpr int kPlayers = 8;
constexpr std::uint64_t kMcSamples = 256;
const int kThreadCounts[] = {1, 2, 4, 8};

model::Federation make_fed(int n) {
  std::vector<model::FacilityConfig> configs;
  for (int i = 0; i < n; ++i) {
    model::FacilityConfig cfg;
    cfg.name = "F" + std::to_string(i);
    cfg.num_locations = 20 + 10 * (i % 5);
    cfg.units_per_location = 1.0 + (i % 3);
    configs.push_back(cfg);
  }
  return model::Federation(model::LocationSpace::disjoint(configs),
                           model::DemandProfile::uniform(20, 80.0));
}

// Uncached view of the federation's characteristic function: every
// evaluation solves the allocation LP, so the benches measure real work
// rather than Federation's instance cache.
game::FunctionGame make_raw_game(const model::Federation& fed) {
  return game::FunctionGame(fed.num_facilities(), [&fed](game::Coalition c) {
    return model::coalition_value(fed.space(), fed.demand(), c);
  });
}

void BM_TabulateThreads(benchmark::State& state) {
  exec::set_threads(static_cast<int>(state.range(0)));
  const auto fed = make_fed(kPlayers);
  const auto g = make_raw_game(fed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::tabulate(g));
  }
  state.SetItemsProcessed(state.iterations() * (std::int64_t{1} << kPlayers));
  exec::set_threads(1);
}
BENCHMARK(BM_TabulateThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_MonteCarloShapleyThreads(benchmark::State& state) {
  exec::set_threads(static_cast<int>(state.range(0)));
  const auto fed = make_fed(kPlayers);
  const auto g = make_raw_game(fed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::shapley_monte_carlo(g, kMcSamples, 3));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMcSamples));
  exec::set_threads(1);
}
BENCHMARK(BM_MonteCarloShapleyThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_CachedRetabulate(benchmark::State& state) {
  // Steady-state hit path: the federation's cache is warm, so each
  // tabulation is 2^n cache lookups instead of 2^n LP solves.
  const auto fed = make_fed(kPlayers);
  benchmark::DoNotOptimize(fed.build_game());  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(fed.build_game());
  }
  state.counters["hit_rate"] = fed.value_cache().stats().hit_rate();
}
BENCHMARK(BM_CachedRetabulate);

// --- BENCH_parallel.json -------------------------------------------------

double median_ms(const std::vector<double>& xs_in) {
  std::vector<double> xs = xs_in;
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
  return median_ms(runs);
}

void write_summary_json() {
  const auto fed = make_fed(kPlayers);
  const auto g = make_raw_game(fed);

  std::vector<double> tabulate_ms;
  std::vector<double> mc_ms;
  for (const int t : kThreadCounts) {
    exec::set_threads(t);
    tabulate_ms.push_back(
        time_ms([&] { benchmark::DoNotOptimize(game::tabulate(g)); }, 3));
    mc_ms.push_back(time_ms(
        [&] {
          benchmark::DoNotOptimize(game::shapley_monte_carlo(g, kMcSamples, 3));
        },
        3));
  }
  exec::set_threads(1);

  // Cache statistics: one cold tabulation plus one warm re-tabulation.
  const auto cached_fed = make_fed(kPlayers);
  benchmark::DoNotOptimize(cached_fed.build_game());
  benchmark::DoNotOptimize(cached_fed.build_game());
  const exec::CacheStats cache = cached_fed.value_cache().stats();

  const char* out_env = std::getenv("FEDSHARE_BENCH_OUT");
  const std::string path =
      out_env != nullptr && *out_env != '\0' ? out_env
                                             : "BENCH_parallel.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perf_parallel: cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"parallel\",\n";
  out << "  \"players\": " << kPlayers << ",\n";
  out << "  \"mc_samples\": " << kMcSamples << ",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  auto emit_series = [&](const char* name, const std::vector<double>& ms) {
    out << "  \"" << name << "\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << kThreadCounts[i]
          << "\": " << ms[i];
    }
    out << "},\n";
    out << "  \"" << name << "_speedup\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << kThreadCounts[i]
          << "\": " << (ms[i] > 0.0 ? ms[0] / ms[i] : 0.0);
    }
    out << "},\n";
  };
  emit_series("tabulate_ms", tabulate_ms);
  emit_series("mc_shapley_ms", mc_ms);
  out << "  \"cache\": {\"entries\": " << cache.entries
      << ", \"hits\": " << cache.hits << ", \"misses\": " << cache.misses
      << ", \"hit_rate\": " << cache.hit_rate() << "}\n";
  out << "}\n";
  std::cout << "(summary written to " << path << ")\n";
}

// --- --smoke: thread-count determinism gate ------------------------------

int run_smoke() {
  int failures = 0;
  const auto tables_at = [](int threads) {
    exec::set_threads(threads);
    // A fresh federation per run, so no value comes from its cache.
    const auto fed = make_fed(kPlayers);
    std::vector<std::vector<double>> tables = {
        fed.build_game().values(),
        game::tabulate(make_raw_game(fed)).values()};
    exec::set_threads(1);
    return tables;
  };
  const auto serial = tables_at(1);
  const auto parallel = tables_at(4);
  const char* labels[] = {"federation", "raw"};
  for (std::size_t t = 0; t < serial.size(); ++t) {
    const bool same =
        serial[t].size() == parallel[t].size() &&
        std::memcmp(serial[t].data(), parallel[t].data(),
                    serial[t].size() * sizeof(double)) == 0;
    std::cout << "smoke " << labels[t] << " table n=" << kPlayers
              << ": 1 vs 4 threads " << (same ? "bitwise equal" : "DIFFER")
              << "\n";
    if (!same) {
      std::cerr << "perf_parallel --smoke: the " << labels[t]
                << " table is not bitwise identical at 1 and 4 threads\n";
      ++failures;
    }
  }
  std::cout << (failures == 0 ? "perf-smoke PASSED\n"
                              : "perf-smoke FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_summary_json();
  return 0;
}
