// A5 macrobenchmark: symmetry-quotient tabulation against the full
// per-mask tabulation it short-circuits.
//
// The headline workload is a typed federation — 4 facility types with 4
// identical facilities each (n = 16) — where Federation::build_game with
// SymmetryMode::kExact runs the greedy allocator once per orbit
// (5^4 = 625) instead of once per mask (2^16 = 65536), then closes and
// expands the table. The binary writes a machine-readable
// BENCH_quotient.json (override the path with FEDSHARE_BENCH_OUT) with
// wall times, V(S) evaluation counts, speedups, and a bitwise-agreement
// column, and supports `--smoke`: a fast gate (small n) that exits
// non-zero unless the quotient table is bitwise the full one and
// evaluates fewer coalitions — tools/check.sh runs it as a perf-smoke
// stage.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/symmetry.hpp"
#include "model/federation.hpp"

namespace {

using namespace fedshare;

// `types` facility types, `copies` identical facilities per type, all
// disjoint so the config detector groups them.
model::LocationSpace typed_space(int types, int copies) {
  std::vector<model::FacilityConfig> configs;
  for (int t = 0; t < types; ++t) {
    for (int c = 0; c < copies; ++c) {
      model::FacilityConfig cfg;
      cfg.name = "T" + std::to_string(t) + "F" + std::to_string(c);
      cfg.num_locations = 8 + 4 * t;
      cfg.units_per_location = 1.0 + 0.5 * t;
      cfg.availability = 1.0 - 0.05 * t;
      configs.push_back(std::move(cfg));
    }
  }
  return model::LocationSpace::disjoint(std::move(configs));
}

// Several request classes (the same demand as perf_simplex's chain).
model::DemandProfile typed_demand() {
  model::DemandProfile demand;
  demand.classes.push_back({8.0, 6.0, 1.0, 1.0, 1.0});
  demand.classes.push_back({4.0, 12.0, 2.0, 1.0, 1.0});
  demand.classes.push_back({3.0, 3.0, 1.5, 0.9, 1.0});
  return demand;
}

void BM_BuildGame(benchmark::State& state) {
  const auto space = typed_space(4, static_cast<int>(state.range(0)));
  const auto demand = typed_demand();
  const auto mode = state.range(1) == 0 ? game::SymmetryMode::kOff
                                        : game::SymmetryMode::kExact;
  for (auto _ : state) {
    // A fresh federation per iteration: build_game fills the instance's
    // V(S) memo, which would make every later iteration a cache read.
    const model::Federation fed(space, demand);
    benchmark::DoNotOptimize(fed.build_game(mode));
  }
}
BENCHMARK(BM_BuildGame)
    ->ArgsProduct({{2, 3}, {0, 1}})
    ->ArgNames({"copies", "exact"});

// --- BENCH_quotient.json --------------------------------------------------

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

struct QuotientRow {
  int types = 0;
  int copies = 0;
  int n = 0;
  double full_ms = 0.0;
  double quotient_ms = 0.0;
  std::uint64_t full_evals = 0;      ///< greedy V(S) runs, kOff
  std::uint64_t quotient_evals = 0;  ///< greedy V(S) runs, kExact
  bool bitwise_equal = false;  ///< the two tables agree bit for bit
};

// Tabulates a fresh federation; `evals` receives its greedy run count.
game::TabularGame tabulate(const model::LocationSpace& space,
                           const model::DemandProfile& demand,
                           game::SymmetryMode mode, std::uint64_t* evals) {
  const model::Federation fed(space, demand);
  game::TabularGame table = fed.build_game(mode);
  if (evals != nullptr) *evals = fed.value_cache().stats().misses;
  return table;
}

QuotientRow measure_quotient(int types, int copies, int reps) {
  const auto space = typed_space(types, copies);
  const auto demand = typed_demand();
  QuotientRow row;
  row.types = types;
  row.copies = copies;
  row.n = types * copies;
  const game::TabularGame full =
      tabulate(space, demand, game::SymmetryMode::kOff, &row.full_evals);
  const game::TabularGame quotient = tabulate(
      space, demand, game::SymmetryMode::kExact, &row.quotient_evals);
  const std::vector<double>& a = full.values();
  const std::vector<double>& b = quotient.values();
  row.bitwise_equal =
      a.size() == b.size() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  row.full_ms = time_ms(
      [&] {
        benchmark::DoNotOptimize(
            tabulate(space, demand, game::SymmetryMode::kOff, nullptr));
      },
      reps);
  row.quotient_ms = time_ms(
      [&] {
        benchmark::DoNotOptimize(
            tabulate(space, demand, game::SymmetryMode::kExact, nullptr));
      },
      reps);
  return row;
}

void write_summary_json() {
  std::vector<QuotientRow> rows;
  rows.push_back(measure_quotient(4, 2, 9));  // n = 8
  rows.push_back(measure_quotient(4, 3, 5));  // n = 12
  rows.push_back(measure_quotient(4, 4, 3));  // n = 16 (the headline)

  const char* out_env = std::getenv("FEDSHARE_BENCH_OUT");
  const std::string path = out_env != nullptr && *out_env != '\0'
                               ? out_env
                               : "BENCH_quotient.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perf_quotient: cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"quotient\",\n";
  out << "  \"workload\": \"typed federation (4 types x k copies), "
         "Federation::build_game: kOff (per mask) vs kExact (per "
         "orbit)\",\n";
  out << "  \"tabulations\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const QuotientRow& r = rows[i];
    const double speedup =
        r.quotient_ms > 0.0 ? r.full_ms / r.quotient_ms : 0.0;
    out << "    {\"types\": " << r.types << ", \"copies\": " << r.copies
        << ", \"n\": " << r.n << ", \"masks\": " << (1u << r.n)
        << ", \"full_ms\": " << r.full_ms
        << ", \"quotient_ms\": " << r.quotient_ms
        << ", \"speedup\": " << speedup
        << ", \"full_evals\": " << r.full_evals
        << ", \"quotient_evals\": " << r.quotient_evals
        << ", \"bitwise_equal\": " << (r.bitwise_equal ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::cout << "(summary written to " << path << ")\n";
}

// --- --smoke: fast quotient agreement gate --------------------------------

int run_smoke() {
  int failures = 0;
  for (const int types : {3, 4}) {
    const QuotientRow row = measure_quotient(types, 2, 1);  // n = 6, 8
    std::cout << "smoke n=" << row.n << ": full_evals=" << row.full_evals
              << " quotient_evals=" << row.quotient_evals
              << " bitwise_equal=" << row.bitwise_equal << "\n";
    if (!row.bitwise_equal) {
      std::cerr << "perf_quotient --smoke: quotient tabulation is not "
                   "bitwise the full tabulation at n="
                << row.n << "\n";
      ++failures;
    }
    if (row.quotient_evals >= row.full_evals) {
      std::cerr << "perf_quotient --smoke: quotient saved no V(S) "
                   "evaluations at n="
                << row.n << " (" << row.quotient_evals << " vs "
                << row.full_evals << ")\n";
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
