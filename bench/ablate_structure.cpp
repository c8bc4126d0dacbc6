// Ablation A12: coalition-structure generation. Two questions:
//
//  1. When does the welfare-optimal partition beat the grand coalition?
//     Swept two ways: the utility exponent d (d < 1 makes the economy
//     subadditive, so facilities should stay apart; a threshold l with
//     d = 1 makes it superadditive, so the grand coalition should win),
//     and location overlap (a shrinking universe erodes the diversity
//     value of large unions, Sec. 2.1).
//  2. How much faster is the anchored subset-lattice DP than
//     brute-force partition enumeration? The DP walks (3^n + 1)/2 - 2^n
//     lattice edges; brute force visits all Bell(n) partitions. Both
//     fold welfare in the same canonical order, so their optima must be
//     *bitwise* equal — checked on every run.
//
// Writes BENCH_structure.json (override with FEDSHARE_BENCH_OUT).
// `--smoke` runs the agreement gates only (DP == brute force bitwise on
// random games, 1-vs-4-thread bitwise equality, DP >= grand welfare)
// and exits non-zero on any failure — tools/check.sh and CI run it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/pool.hpp"
#include "io/table.hpp"
#include "model/federation.hpp"
#include "structure/csg.hpp"

namespace {

using namespace fedshare;

// A random non-superadditive tabular game: V(S) uniform in
// [0, |S|^1.2]. Deterministic per seed; value-diverse enough that the
// optimal structure is rarely the grand coalition or all-singletons.
game::TabularGame random_game(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> values(std::size_t{1} << n, 0.0);
  for (std::size_t mask = 1; mask < values.size(); ++mask) {
    const int size = __builtin_popcountll(mask);
    values[mask] = unit(rng) * std::pow(static_cast<double>(size), 1.2);
  }
  return game::TabularGame(n, std::move(values));
}

template <typename Fn>
double time_ms(const Fn& fn, int reps) {
  std::vector<double> runs;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    runs.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

std::string partition_string(const game::CoalitionStructure& p) {
  std::string out;
  for (const auto& block : p.unions) {
    if (!out.empty()) out += " ";
    out += block.to_string();
  }
  return out;
}

struct WelfareRow {
  std::string label;
  double grand = 0.0;
  double best = 0.0;
  std::size_t blocks = 0;
  std::string partition;
};

WelfareRow measure_welfare(const std::string& label,
                           const game::Game& g) {
  WelfareRow row;
  row.label = label;
  row.grand = g.value(game::Coalition::grand(g.num_players()));
  const auto r = structure::optimal_structure(g);
  row.best = r.welfare;
  row.blocks = r.structure.unions.size();
  row.partition = partition_string(r.structure);
  return row;
}

struct TimingRow {
  int n = 0;
  double dp_ms = 0.0;
  double brute_ms = 0.0;
  std::uint64_t dp_splits = 0;
  std::uint64_t partitions = 0;  // Bell(n), as enumerated
  bool bitwise_equal = false;
};

TimingRow measure_timing(int n, std::uint64_t seed, int dp_reps,
                         int brute_reps) {
  const game::TabularGame g = random_game(n, seed);
  TimingRow row;
  row.n = n;
  const auto dp = structure::optimal_structure(g);
  const auto brute = structure::brute_force_structure(g);
  row.dp_splits = dp.splits_considered;
  row.partitions = brute.splits_considered;
  row.bitwise_equal = dp.welfare == brute.welfare &&
                      dp.structure.unions == brute.structure.unions;
  // Each timed solve stores its welfare, so its result is used.
  volatile double sink = 0.0;
  row.dp_ms = time_ms(
      [&] { sink = structure::optimal_structure(g).welfare; }, dp_reps);
  row.brute_ms = time_ms(
      [&] { sink = structure::brute_force_structure(g).welfare; },
      brute_reps);
  return row;
}

// --- BENCH_structure.json -------------------------------------------------

void write_summary_json(const std::vector<WelfareRow>& exponent_rows,
                        const std::vector<WelfareRow>& overlap_rows,
                        const std::vector<TimingRow>& timings) {
  const char* out_env = std::getenv("FEDSHARE_BENCH_OUT");
  const std::string path = out_env != nullptr && *out_env != '\0'
                               ? out_env
                               : "BENCH_structure.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "ablate_structure: cannot write " << path << "\n";
    return;
  }
  const auto write_welfare = [&](const char* key,
                                 const std::vector<WelfareRow>& rows) {
    out << "  \"" << key << "\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const WelfareRow& r = rows[i];
      out << "    {\"case\": \"" << r.label << "\", \"grand\": " << r.grand
          << ", \"best_welfare\": " << r.best
          << ", \"gain\": " << (r.best - r.grand)
          << ", \"blocks\": " << r.blocks << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
  };
  out << "{\n";
  out << "  \"bench\": \"structure\",\n";
  out << "  \"workload\": \"optimal coalition structure vs grand coalition "
         "(exponent + overlap sweeps); anchored subset-lattice DP vs "
         "brute-force Bell(n) enumeration\",\n";
  write_welfare("exponent_sweep", exponent_rows);
  write_welfare("overlap_sweep", overlap_rows);
  out << "  \"timings\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const TimingRow& r = timings[i];
    const double speedup = r.dp_ms > 0.0 ? r.brute_ms / r.dp_ms : 0.0;
    out << "    {\"n\": " << r.n << ", \"dp_ms\": " << r.dp_ms
        << ", \"brute_ms\": " << r.brute_ms << ", \"speedup\": " << speedup
        << ", \"dp_splits\": " << r.dp_splits
        << ", \"partitions\": " << r.partitions << ", \"bitwise_equal\": "
        << (r.bitwise_equal ? "true" : "false") << "}"
        << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::cout << "\n(summary written to " << path << ")\n";
}

// --- --smoke: agreement gates ---------------------------------------------

int run_smoke() {
  int failures = 0;

  // DP vs brute force, bitwise, on random games.
  for (const int n : {6, 8, 9}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const game::TabularGame g = random_game(n, 0x57A7 * seed + n);
      const auto dp = structure::optimal_structure(g);
      const auto brute = structure::brute_force_structure(g);
      if (dp.welfare != brute.welfare ||
          dp.structure.unions != brute.structure.unions) {
        std::cerr << "ablate_structure --smoke: DP disagrees with brute "
                     "force at n="
                  << n << " seed=" << seed << " (dp " << dp.welfare
                  << " vs brute " << brute.welfare << ")\n";
        ++failures;
      }
      const double grand = g.value(game::Coalition::grand(n));
      if (dp.welfare < grand) {
        std::cerr << "ablate_structure --smoke: DP welfare " << dp.welfare
                  << " below grand coalition " << grand << " at n=" << n
                  << "\n";
        ++failures;
      }
    }
  }
  std::cout << "smoke dp-vs-brute: bitwise equal on random games n in "
               "{6,8,9} x 3 seeds\n";

  // 1-vs-4-thread bitwise equality of the parallel DP sweep.
  const game::TabularGame g = random_game(11, 0xBEEF);
  exec::set_threads(1);
  const auto serial = structure::optimal_structure(g);
  exec::set_threads(4);
  const auto parallel = structure::optimal_structure(g);
  exec::set_threads(1);
  if (serial.welfare != parallel.welfare ||
      serial.structure.unions != parallel.structure.unions) {
    std::cerr << "ablate_structure --smoke: 1-thread and 4-thread DP "
                 "results differ (serial "
              << serial.welfare << " vs parallel " << parallel.welfare
              << ")\n";
    ++failures;
  }
  std::cout << "smoke threads: 1-thread and 4-thread DP bitwise equal at "
               "n=11\n";

  std::cout << (failures == 0 ? "structure-smoke PASSED\n"
                              : "structure-smoke FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }

  // Sweep 1: utility exponent d (economy shape) on the Fig. 4
  // facilities with threshold l = 500.
  io::print_heading(std::cout,
                    "A12 — optimal structure vs grand coalition (exponent "
                    "sweep, l = 500)");
  io::Table exp_table(
      {"d", "V(N)", "best welfare", "gain", "blocks", "partition"});
  exp_table.set_align(5, io::Align::kLeft);
  std::vector<WelfareRow> exponent_rows;
  const auto configs =
      benchutil::make_facilities({100, 400, 800}, {1.0, 1.0, 1.0});
  for (const double d : {1.3, 1.0, 0.8, 0.6, 0.4}) {
    model::Federation fed(model::LocationSpace::disjoint(configs),
                          model::DemandProfile::single_experiment(500.0, d));
    const auto g = fed.build_game();
    WelfareRow row = measure_welfare("d=" + io::format_double(d, 1), g);
    exp_table.add_row({io::format_double(d, 1),
                       io::format_double(row.grand, 1),
                       io::format_double(row.best, 1),
                       io::format_double(row.best - row.grand, 1),
                       std::to_string(row.blocks), row.partition});
    exponent_rows.push_back(std::move(row));
  }
  exp_table.print(std::cout);

  // Sweep 2: location overlap (shrinking universe) at l = 400. The
  // concave d = 0.8 economy sits on the partition/federate boundary, so
  // the optimal structure visibly responds as overlap erodes the
  // diversity value of unions (at d = 1 the game stays superadditive
  // and the grand coalition wins at every overlap level).
  io::print_heading(std::cout,
                    "A12 — optimal structure vs grand coalition (overlap "
                    "sweep, l = 400, d = 0.8, seed 1000)");
  io::Table ov_table(
      {"universe", "V(N)", "best welfare", "gain", "blocks", "partition"});
  ov_table.set_align(5, io::Align::kLeft);
  std::vector<WelfareRow> overlap_rows;
  for (const int universe : {2600, 1600, 1300, 1100, 900, 800}) {
    const auto space =
        model::LocationSpace::overlapping(configs, universe, 1000u);
    model::Federation fed(
        space, model::DemandProfile::single_experiment(400.0, 0.8));
    const auto g = fed.build_game();
    WelfareRow row = measure_welfare("universe=" + std::to_string(universe), g);
    ov_table.add_row({std::to_string(universe),
                      io::format_double(row.grand, 1),
                      io::format_double(row.best, 1),
                      io::format_double(row.best - row.grand, 1),
                      std::to_string(row.blocks), row.partition});
    overlap_rows.push_back(std::move(row));
  }
  ov_table.print(std::cout);

  // DP vs brute-force enumeration on random non-superadditive games.
  io::print_heading(std::cout,
                    "A12 — exact CSG: subset-lattice DP vs Bell(n) "
                    "enumeration");
  io::Table t_table({"n", "DP ms", "brute ms", "speedup", "DP splits",
                     "partitions", "bitwise equal"});
  std::vector<TimingRow> timings;
  timings.push_back(measure_timing(8, 0xA11, 20, 10));
  timings.push_back(measure_timing(10, 0xA12, 20, 3));
  timings.push_back(measure_timing(12, 0xA13, 10, 1));
  for (const TimingRow& r : timings) {
    t_table.add_row(
        {std::to_string(r.n), io::format_double(r.dp_ms, 3),
         io::format_double(r.brute_ms, 3),
         io::format_double(r.dp_ms > 0.0 ? r.brute_ms / r.dp_ms : 0.0, 1),
         std::to_string(r.dp_splits), std::to_string(r.partitions),
         r.bitwise_equal ? "yes" : "NO"});
  }
  t_table.print(std::cout);
  std::cout << "\nExpected: d < 1 (subadditive) favours singletons and the\n"
               "threshold economy favours the grand coalition; rising\n"
               "overlap erodes large unions' diversity value until\n"
               "partitioning wins. The DP's ~(3^n)/2 lattice edges\n"
               "dominate Bell(n) enumeration from n = 10 on.\n";

  write_summary_json(exponent_rows, overlap_rows, timings);

  bool ok = true;
  for (const TimingRow& r : timings) ok = ok && r.bitwise_equal;
  return ok ? 0 : 1;
}
