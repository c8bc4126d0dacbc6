// A5 microbenchmarks: the simplex substrate on the LP shapes this
// library actually solves — least-core programs, allocation relaxations,
// and a churning roster's bound chain (the grand pool's relaxation,
// re-solved as each facility goes out of service and comes back), which
// compares the dense tableau engine against the revised engine, cold
// and warm-started from the previous link's basis.
//
// Besides the google-benchmark timings, the binary writes a
// machine-readable BENCH_simplex.json summary (override the path with
// FEDSHARE_BENCH_OUT) with per-n wall times, total pivot counts, and
// cross-engine agreement, and supports `--smoke`: a fast consistency
// run that exits non-zero when the engines disagree or warm starts save
// no pivots — tools/check.sh runs it as a perf-smoke stage.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "alloc/lp_relax.hpp"
#include "common.hpp"
#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "lp/simplex.hpp"
#include "model/federation.hpp"
#include "sim/rng.hpp"

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

void BM_RandomDenseLp(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  sim::Xoshiro256 rng(7);
  lp::Problem prob(vars, lp::Objective::kMaximize);
  for (std::size_t v = 0; v < vars; ++v) {
    prob.set_objective_coefficient(v, rng.uniform(0.1, 1.0));
  }
  for (std::size_t c = 0; c < vars; ++c) {
    std::vector<double> row(vars);
    for (double& x : row) x = rng.uniform(0.0, 1.0);
    prob.add_constraint(std::move(row), lp::Relation::kLessEqual,
                        rng.uniform(5.0, 10.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(prob));
  }
}
BENCHMARK(BM_RandomDenseLp)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_LeastCore(benchmark::State& state) {
  const auto g = make_game(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::least_core(g));
  }
}
BENCHMARK(BM_LeastCore)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_Nucleolus(benchmark::State& state) {
  const auto g = make_game(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::nucleolus(g));
  }
}
BENCHMARK(BM_Nucleolus)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_LpRelaxAllocation(benchmark::State& state) {
  const auto locations = static_cast<std::size_t>(state.range(0));
  alloc::LocationPool pool;
  sim::Xoshiro256 rng(9);
  for (std::size_t l = 0; l < locations; ++l) {
    pool.capacity.push_back(1.0 + static_cast<double>(rng.below(4)));
  }
  std::vector<alloc::RequestClass> classes(2);
  classes[0].count = 10;
  classes[0].min_locations = 2;
  classes[1].count = 5;
  classes[1].min_locations = 4;
  classes[1].units_per_location = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc::lp_upper_bound(pool, classes));
  }
}
BENCHMARK(BM_LpRelaxAllocation)->Arg(4)->Arg(8)->Arg(16);

// --- dense vs revised on the roster's bound chain -------------------------

// 0 = dense cold, 1 = revised cold, 2 = revised warm.
benchutil::ChainSolve run_chain(const benchutil::BoundChain& chain,
                                int mode) {
  lp::SimplexOptions options;
  options.solver =
      mode == 0 ? lp::SolverKind::kDense : lp::SolverKind::kRevised;
  return benchutil::solve_bound_chain(chain, options, mode == 2);
}

void BM_BoundChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  const auto chain = benchutil::outage_bound_chain(n);
  std::uint64_t pivots = 0;
  for (auto _ : state) {
    const auto result = run_chain(chain, mode);
    pivots = result.pivots;
    benchmark::DoNotOptimize(result.values.data());
  }
  state.counters["pivots"] = static_cast<double>(pivots);
}
BENCHMARK(BM_BoundChain)
    ->ArgsProduct({{4, 6, 8, 10}, {0, 1, 2}})
    ->ArgNames({"n", "mode"});

// --- BENCH_simplex.json ---------------------------------------------------

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

struct ChainRow {
  int n = 0;
  std::size_t lps = 0;  ///< links in the chain (2n + 1)
  double dense_ms = 0.0;
  double revised_cold_ms = 0.0;
  double revised_warm_ms = 0.0;
  std::uint64_t dense_pivots = 0;
  std::uint64_t revised_cold_pivots = 0;
  std::uint64_t revised_warm_pivots = 0;
  bool complete = true;    ///< every link optimal on every engine
  double cold_diff = 0.0;  ///< max |revised cold - dense|
  double warm_diff = 0.0;  ///< max |revised warm - dense|
};

ChainRow measure_chain(int n, int reps) {
  const auto chain = benchutil::outage_bound_chain(n);
  ChainRow row;
  row.n = n;
  row.lps = chain.caps.size();
  const auto dense = run_chain(chain, 0);
  const auto cold = run_chain(chain, 1);
  const auto warm = run_chain(chain, 2);
  row.dense_pivots = dense.pivots;
  row.revised_cold_pivots = cold.pivots;
  row.revised_warm_pivots = warm.pivots;
  row.complete = dense.complete && cold.complete && warm.complete;
  row.cold_diff = max_abs_diff(dense.values, cold.values);
  row.warm_diff = max_abs_diff(dense.values, warm.values);
  row.dense_ms = time_ms([&] { (void)run_chain(chain, 0); }, reps);
  row.revised_cold_ms = time_ms([&] { (void)run_chain(chain, 1); }, reps);
  row.revised_warm_ms = time_ms([&] { (void)run_chain(chain, 2); }, reps);
  return row;
}

void write_summary_json() {
  std::vector<ChainRow> rows;
  for (const int n : {4, 6, 8, 10, 12}) {
    // Each chain is only 2n + 1 LPs, so take enough reps for a stable
    // median on a busy host.
    rows.push_back(measure_chain(n, 9));
  }

  const char* out_env = std::getenv("FEDSHARE_BENCH_OUT");
  const std::string path =
      out_env != nullptr && *out_env != '\0' ? out_env : "BENCH_simplex.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perf_simplex: cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"simplex\",\n";
  out << "  \"workload\": \"serve bound chain: grand-pool relaxation, each "
         "facility zeroed then restored in turn; disjoint facilities, 3 "
         "request classes\",\n";
  out << "  \"chains\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ChainRow& r = rows[i];
    const double ratio =
        r.revised_warm_pivots > 0
            ? static_cast<double>(r.dense_pivots) /
                  static_cast<double>(r.revised_warm_pivots)
            : 0.0;
    out << "    {\"n\": " << r.n << ", \"lps\": " << r.lps
        << ", \"dense_ms\": " << r.dense_ms
        << ", \"revised_cold_ms\": " << r.revised_cold_ms
        << ", \"revised_warm_ms\": " << r.revised_warm_ms
        << ", \"dense_pivots\": " << r.dense_pivots
        << ", \"revised_cold_pivots\": " << r.revised_cold_pivots
        << ", \"revised_warm_pivots\": " << r.revised_warm_pivots
        << ", \"pivot_ratio_dense_over_warm\": " << ratio
        << ", \"max_abs_diff_cold\": " << r.cold_diff
        << ", \"max_abs_diff_warm\": " << r.warm_diff << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::cout << "(summary written to " << path << ")\n";
}

// --- --smoke: fast cross-engine consistency gate --------------------------

int run_smoke() {
  constexpr double kAgreeTol = 1e-7;
  int failures = 0;
  for (const int n : {5, 7}) {
    const ChainRow row = measure_chain(n, 1);
    std::cout << "smoke n=" << n << ": lps=" << row.lps
              << " dense_pivots=" << row.dense_pivots
              << " revised_cold_pivots=" << row.revised_cold_pivots
              << " revised_warm_pivots=" << row.revised_warm_pivots
              << " max_diff_cold=" << row.cold_diff
              << " max_diff_warm=" << row.warm_diff << "\n";
    if (!row.complete) {
      std::cerr << "perf_simplex --smoke: a chain link failed to solve at n="
                << n << "\n";
      ++failures;
    }
    if (row.cold_diff > kAgreeTol || row.warm_diff > kAgreeTol) {
      std::cerr << "perf_simplex --smoke: engines disagree at n=" << n
                << " (cold " << row.cold_diff << ", warm " << row.warm_diff
                << ", tol " << kAgreeTol << ")\n";
      ++failures;
    }
    if (row.revised_warm_pivots >= row.revised_cold_pivots) {
      std::cerr << "perf_simplex --smoke: warm start saved no pivots at n="
                << n << " (" << row.revised_warm_pivots << " vs "
                << row.revised_cold_pivots << " cold)\n";
      ++failures;
    }
  }
  std::cout << (failures == 0 ? "perf-smoke PASSED\n" : "perf-smoke FAILED\n");
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
