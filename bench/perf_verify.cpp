// Verification-overhead microbenchmarks: what does --verify=full cost?
//
// Measures the certificate layer on the workloads it actually guards —
// single least-core solves, iterative refinement of drifted optima, and
// a churning roster's warm bound chain (the grand pool's relaxation,
// re-solved as each facility goes out of service and comes back) with
// a CertifyingObserver attached to every solve — against the identical
// uninstrumented runs. Besides the google-benchmark timings, writes a
// machine-readable BENCH_verify.json (override the path with
// FEDSHARE_BENCH_OUT) with per-n plain vs certified wall times, observer
// tallies, and the measured overhead ratio, and supports `--smoke`: a
// fast gate that fails when any chain solve goes uncertified or
// certification changes a value's bits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/core_solution.hpp"
#include "core/game.hpp"
#include "lp/simplex.hpp"
#include "model/federation.hpp"
#include "model/location_space.hpp"
#include "verify/certificates.hpp"
#include "verify/certified.hpp"
#include "verify/refine.hpp"

namespace {

using namespace fedshare;

game::TabularGame bench_game(int n) {
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

// The least-core LP for `g` in explicit Problem form: the shape a
// certificate check actually sees inside the sharing pipeline.
lp::Problem least_core_problem(const game::TabularGame& g) {
  const int n = g.num_players();
  const std::uint64_t full = (std::uint64_t{1} << n) - 1;
  // Variables: x_0..x_{n-1} (free payoffs), epsilon (free, minimized).
  lp::Problem p(static_cast<std::size_t>(n) + 1, lp::Objective::kMinimize);
  for (int i = 0; i <= n; ++i) p.set_free(static_cast<std::size_t>(i));
  p.set_objective_coefficient(static_cast<std::size_t>(n), 1.0);
  std::vector<double> eff(static_cast<std::size_t>(n) + 1, 1.0);
  eff[static_cast<std::size_t>(n)] = 0.0;
  p.add_constraint(std::move(eff), lp::Relation::kEqual, g.grand_value());
  for (std::uint64_t mask = 1; mask < full; ++mask) {
    std::vector<double> row(static_cast<std::size_t>(n) + 1, 0.0);
    for (int i = 0; i < n; ++i) {
      if (mask >> i & 1) row[static_cast<std::size_t>(i)] = 1.0;
    }
    row[static_cast<std::size_t>(n)] = 1.0;
    p.add_constraint(std::move(row), lp::Relation::kGreaterEqual,
                     g.value(game::Coalition::from_bits(mask)));
  }
  return p;
}

void BM_CheckCertificate(benchmark::State& state) {
  const auto g = bench_game(static_cast<int>(state.range(0)));
  const lp::Problem p = least_core_problem(g);
  lp::SimplexOptions options;
  options.solver = lp::SolverKind::kRevised;
  const lp::Solution s = lp::solve(p, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::check_lp(p, s));
  }
}
BENCHMARK(BM_CheckCertificate)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_RefineDriftedOptimum(benchmark::State& state) {
  const auto g = bench_game(static_cast<int>(state.range(0)));
  const lp::Problem p = least_core_problem(g);
  lp::SimplexOptions options;
  options.solver = lp::SolverKind::kRevised;
  const lp::Solution clean = lp::solve(p, options);
  verify::VerifyOptions vopts;
  vopts.level = verify::VerifyLevel::kFull;
  for (auto _ : state) {
    lp::Solution drifted = clean;
    if (!drifted.x.empty()) drifted.x[0] += 3e-5;
    drifted.objective += 3e-5;
    benchmark::DoNotOptimize(verify::refine_lp(p, drifted, vopts));
  }
}
BENCHMARK(BM_RefineDriftedOptimum)->Arg(4)->Arg(6)->Arg(8);

void BM_CertifiedSolve(benchmark::State& state) {
  const auto g = bench_game(static_cast<int>(state.range(0)));
  const lp::Problem p = least_core_problem(g);
  lp::SimplexOptions options;
  options.solver = lp::SolverKind::kRevised;
  verify::VerifyOptions vopts;
  vopts.level = verify::VerifyLevel::kFull;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::certified_solve(p, options, vopts));
  }
}
BENCHMARK(BM_CertifiedSolve)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

// --- BENCH_verify.json ----------------------------------------------------

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

struct VerifyRow {
  int n = 0;
  std::size_t lps = 0;        ///< links in the chain (2n + 1)
  double plain_ms = 0.0;      ///< warm revised chain, no observer
  double certified_ms = 0.0;  ///< same chain, CertifyingObserver attached
  std::uint64_t solves = 0;
  std::uint64_t certified = 0;
  std::uint64_t unchecked = 0;
  std::uint64_t repaired = 0;  ///< refined + escalated
  std::uint64_t failures = 0;
  double worst_residual = 0.0;
  bool bitwise_equal = true;  ///< certified chain values == plain, bitwise
};

VerifyRow measure(int n, int reps) {
  const auto chain = benchutil::outage_bound_chain(n);
  lp::SimplexOptions plain;
  plain.solver = lp::SolverKind::kRevised;

  VerifyRow row;
  row.n = n;
  row.lps = chain.caps.size();
  const auto reference = benchutil::solve_bound_chain(chain, plain, true);
  row.plain_ms = time_ms(
      [&] {
        benchmark::DoNotOptimize(
            benchutil::solve_bound_chain(chain, plain, true));
      },
      reps);

  verify::VerifyOptions vopts;
  vopts.level = verify::VerifyLevel::kFull;
  lp::SimplexOptions cascade_options;
  cascade_options.solver = lp::SolverKind::kRevised;
  row.certified_ms = time_ms(
      [&] {
        verify::CertifyingObserver observer(vopts, cascade_options);
        lp::SimplexOptions observed = plain;
        observed.observer = &observer;
        benchmark::DoNotOptimize(
            benchutil::solve_bound_chain(chain, observed, true));
      },
      reps);
  // One more instrumented run for the tallies and the value check.
  verify::CertifyingObserver observer(vopts, cascade_options);
  lp::SimplexOptions observed = plain;
  observed.observer = &observer;
  const auto certified = benchutil::solve_bound_chain(chain, observed, true);
  const auto stats = observer.stats();
  row.solves = stats.solves;
  row.certified = stats.certified;
  row.unchecked = stats.unchecked;
  row.repaired = stats.refined + stats.escalated;
  row.failures = stats.failures;
  row.worst_residual = stats.worst_residual;
  row.bitwise_equal =
      reference.complete && certified.complete &&
      reference.values.size() == certified.values.size() &&
      std::memcmp(reference.values.data(), certified.values.data(),
                  reference.values.size() * sizeof(double)) == 0;
  return row;
}

void write_summary_json(const std::vector<VerifyRow>& rows) {
  const char* out_env = std::getenv("FEDSHARE_BENCH_OUT");
  const std::string path =
      out_env != nullptr && *out_env != '\0' ? out_env : "BENCH_verify.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perf_verify: cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"verify\",\n";
  out << "  \"workload\": \"serve bound chain (each facility zeroed then "
         "restored in turn), revised warm, with vs without per-solve "
         "certification\",\n";
  out << "  \"chains\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const VerifyRow& r = rows[i];
    const double ratio = r.plain_ms > 0.0 ? r.certified_ms / r.plain_ms : 0.0;
    out << "    {\"n\": " << r.n << ", \"lps\": " << r.lps
        << ", \"plain_ms\": " << r.plain_ms
        << ", \"certified_ms\": " << r.certified_ms
        << ", \"overhead_ratio\": " << ratio
        << ", \"solves\": " << r.solves
        << ", \"certified\": " << r.certified
        << ", \"unchecked\": " << r.unchecked
        << ", \"repaired\": " << r.repaired
        << ", \"failures\": " << r.failures
        << ", \"worst_residual\": " << r.worst_residual
        << ", \"bitwise_equal\": " << (r.bitwise_equal ? "true" : "false")
        << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::cout << "(summary written to " << path << ")\n";
}

// --- --smoke: certification-overhead gate ---------------------------------

int run_smoke() {
  int failures = 0;
  for (const int n : {5, 7}) {
    const VerifyRow row = measure(n, 1);
    std::cout << "smoke n=" << n << ": solves=" << row.solves
              << " certified=" << row.certified
              << " unchecked=" << row.unchecked
              << " failures=" << row.failures
              << " worst_residual=" << row.worst_residual
              << " bitwise_equal=" << row.bitwise_equal << "\n";
    if (row.failures > 0 || row.unchecked > 0 || row.solves < row.lps ||
        row.certified != row.solves) {
      std::cerr << "perf_verify --smoke: uncertified solves at n=" << n
                << "\n";
      ++failures;
    }
    if (!row.bitwise_equal) {
      std::cerr << "perf_verify --smoke: certification changed chain values "
                   "at n="
                << n << "\n";
      ++failures;
    }
  }
  std::cout << (failures == 0 ? "verify-smoke PASSED\n"
                              : "verify-smoke FAILED\n");
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
  std::vector<VerifyRow> rows;
  for (const int n : {4, 6, 8, 10, 12}) {
    rows.push_back(measure(n, 9));
  }
  write_summary_json(rows);
  return 0;
}
