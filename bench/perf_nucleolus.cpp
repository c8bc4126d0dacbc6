// Nucleolus macrobenchmark: the orbit-row quotient formulation against
// the dense 2^n-row formulation it replaces on typed games, and the
// tightness filters (slack, dual, batched release, rank-first
// uniqueness) against the unfiltered one-LP-per-row loop.
//
// The headline workload is 4 facility types with 4 identical players
// each (n = 16): every probe LP carries 5^4 - 2 = 623 orbit rows where
// the dense formulation would need 2^16 - 2 = 65534 — past its own
// guard, so dense cannot attempt the case at all. The binary writes
// BENCH_nucleolus.json (override the path with FEDSHARE_BENCH_OUT) with
// rows/LPs/pivots/wall-times for typed n = 8..20 and for heterogeneous
// federations (the default report's dense path, n = 6..10), each next
// to the LP and pivot counts of the unfiltered reference loop
// (tests/nucleolus_reference.hpp) where that loop finishes in seconds,
// and for the "flat" serve roster game (six near-additive facilities,
// most rows tight at the least core). The typed and quotient cases run
// on the started dense engine every user path runs; the hetero and
// flat games also run on the revised engine, which lp::solve runs cold
// per LP, as a cross-check. The unfiltered reference loops of the typed
// cases run on the revised engine (their LP counts do not depend on
// it; the dense engine would take minutes at n = 20). It supports
// `--smoke`:
// dense-vs-quotient agreement, a fewer-LPs gate on the unfiltered loop
// and a fewer-pivots gate on the filtered one on every n <= 10 case, a
// bitwise gate on the dyadic two-type family, the n = 16
// row-ratio and dense-refusal gates, an LP-ratio gate (a heterogeneous
// n = 8 dense-engine nucleolus solves at most 10% of the rows x rounds
// LPs the unfiltered loop would), a certification gate (every LP
// certified, on both engines) and a working-set gate (hetero n = 9
// solves on both engines, every LP certified, and passes the full-table
// excess scan)
// and a flat-game gate (both engines solve the serve roster game and
// agree) — tools/check.sh runs it as a perf-smoke stage.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/runner.hpp"
#include "core/game.hpp"
#include "core/nucleolus.hpp"
#include "core/symmetry.hpp"
#include "io/config.hpp"
#include "lp/simplex.hpp"
#include "model/federation.hpp"
#include "nucleolus_reference.hpp"
#include "serve/event.hpp"
#include "serve/state.hpp"
#include "verify/certified.hpp"

namespace {

using namespace fedshare;

// `types` player types with `copies` interchangeable players each.
game::PlayerPartition typed_partition(int types, int copies) {
  std::vector<int> type_of(static_cast<std::size_t>(types * copies));
  for (int i = 0; i < types * copies; ++i) {
    type_of[static_cast<std::size_t>(i)] = i / copies;
  }
  return game::PlayerPartition::from_type_of(type_of);
}

// Symmetric by construction (value depends only on per-type counts) and
// dyadic (integer linear term + 0.125 * total^2), so the LP data is
// exactly representable.
game::FunctionGame typed_game(game::PlayerPartition partition,
                              std::uint64_t seed) {
  const int n = partition.num_players();
  return game::FunctionGame(n, [partition, seed](game::Coalition s) {
    std::vector<int> counts(static_cast<std::size_t>(partition.num_types()),
                            0);
    for (const int i : s.members()) {
      ++counts[static_cast<std::size_t>(partition.type_of(i))];
    }
    double acc = 0.0;
    int total = 0;
    for (int t = 0; t < partition.num_types(); ++t) {
      const double c = counts[static_cast<std::size_t>(t)];
      acc += c * (t + 2.0 + static_cast<double>(seed % 5));
      total += counts[static_cast<std::size_t>(t)];
    }
    return acc + 0.125 * total * total;
  });
}

lp::SimplexOptions revised_options() {
  lp::SimplexOptions options;
  options.solver = lp::SolverKind::kRevised;
  return options;
}

// A federation of n distinct facilities (locations 130, 240, ..., units
// alternating 1 and 2) under the default report's two demand classes:
// no two players are interchangeable, so only the dense formulation
// applies — the `fedshare_cli <config>` path.
game::TabularGame hetero_game(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "[facility]\nname = F" + std::to_string(i) +
            "\nlocations = " + std::to_string(130 + 110 * i) +
            "\nunits = " + std::to_string(i % 2 + 1) + "\n\n";
  }
  text +=
      "[demand]\ncount = 20\nmin_locations = 300\n\n"
      "[demand]\ncount = 5\nmin_locations = 900\nexponent = 1.2\n";
  const model::Federation fed =
      cli::federation_from_config(io::Config::parse_string(text));
  return fed.build_game();
}

// The game the serve layer publishes for perfbench's serve_flap roster:
// a two-class demand and six small facilities (4-6 locations, 1 or 1.5
// units, availability 0.9 down to 0.65), tabulated by serve::ServiceState.
// The game is nearly additive: 56 of its 62 rows are tight at the least
// core, its only level, and the release pass of tight_rows carries them.
game::TabularGame flat_game() {
  serve::ServiceState state;
  serve::DemandUpdate demand;
  demand.demand = model::DemandProfile::uniform(8.0, 6.0);
  model::RequestClass second;
  second.count = 3.0;
  second.min_locations = 2.0;
  second.units_per_location = 2.0;
  demand.demand.classes.push_back(second);
  (void)state.apply(demand);
  for (int i = 0; i < 6; ++i) {
    serve::FacilityJoin join;
    join.config.name = "F" + std::to_string(i);
    join.config.num_locations = 4 + i % 3;
    join.config.units_per_location = 1.0 + 0.5 * (i % 2);
    join.config.availability = 0.9 - 0.05 * i;
    (void)state.apply(join);
  }
  return *state.snapshot()->game;
}

void BM_DenseNucleolus(benchmark::State& state) {
  const auto partition =
      typed_partition(4, static_cast<int>(state.range(0)));
  const game::TabularGame tab = game::tabulate(typed_game(partition, 1));
  for (auto _ : state) {
    const auto r = game::nucleolus(tab);
    benchmark::DoNotOptimize(r.allocation.data());
  }
}
BENCHMARK(BM_DenseNucleolus)->Arg(2);  // n = 8 (the dense ceiling is 10)

void BM_QuotientNucleolus(benchmark::State& state) {
  const auto partition =
      typed_partition(4, static_cast<int>(state.range(0)));
  const game::FunctionGame base = typed_game(partition, 1);
  const game::QuotientGame quotient(base, partition);
  (void)quotient.orbit_values();  // measure the LP chain, not the memo fill
  for (auto _ : state) {
    const auto r = game::nucleolus_quotient(quotient);
    benchmark::DoNotOptimize(r.allocation.data());
  }
}
BENCHMARK(BM_QuotientNucleolus)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

// --- BENCH_nucleolus.json -------------------------------------------------

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

struct NucleolusRow {
  int types = 0;
  int copies = 0;
  int n = 0;
  std::uint64_t dense_rows = 0;   ///< 2^n - 2 (what dense would carry)
  std::uint64_t orbit_rows = 0;   ///< prod_t (m_t + 1) - 2
  bool dense_attempted = false;   ///< n <= 10 only
  double dense_ms = 0.0;
  double quotient_ms = 0.0;
  double quotient_ms_unfiltered = 0.0;
  std::uint64_t dense_lps = 0;
  std::uint64_t quotient_lps = 0;
  std::uint64_t dense_pivots = 0;
  std::uint64_t quotient_pivots = 0;
  /// The same counts from the unfiltered reference loop.
  std::uint64_t dense_lps_unfiltered = 0;
  std::uint64_t quotient_lps_unfiltered = 0;
  std::uint64_t dense_pivots_unfiltered = 0;
  std::uint64_t quotient_pivots_unfiltered = 0;
  double diff = 0.0;  ///< max |dense - quotient| allocation (when both ran)
};

// Times both formulations on the default (dense) engine. Also runs the
// unfiltered reference loop on the revised engine for the *_unfiltered
// counts, and times its quotient run: what `--symmetry exact/auto` took
// before the tightness filters.
NucleolusRow measure_nucleolus(int types, int copies, int reps) {
  const auto partition = typed_partition(types, copies);
  const game::FunctionGame base = typed_game(partition, 1);
  const lp::SimplexOptions options;
  const auto reference_options = revised_options();

  NucleolusRow row;
  row.types = types;
  row.copies = copies;
  row.n = types * copies;
  row.dense_rows = (std::uint64_t{1} << row.n) - 2;

  const game::QuotientGame quotient(base, partition);
  const auto q = game::nucleolus_quotient(quotient, options);
  row.orbit_rows = q.excess_rows;
  row.quotient_lps = q.lps_solved;
  row.quotient_pivots = q.pivots;
  row.quotient_ms = time_ms(
      [&] { (void)game::nucleolus_quotient(quotient, options); }, reps);
  game::NucleolusResult q_ref;
  row.quotient_ms_unfiltered = time_ms(
      [&] {
        q_ref = game::reference::unfiltered_nucleolus_quotient(
            quotient, reference_options);
      },
      reps);
  row.quotient_lps_unfiltered = q_ref.lps_solved;
  row.quotient_pivots_unfiltered = q_ref.pivots;

  if (row.n <= 10) {
    row.dense_attempted = true;
    const game::TabularGame tab = game::tabulate(base);
    const auto d = game::nucleolus(tab, options);
    row.dense_lps = d.lps_solved;
    row.dense_pivots = d.pivots;
    row.diff = max_abs_diff(d.allocation, q.allocation);
    row.dense_ms =
        time_ms([&] { (void)game::nucleolus(tab, options); }, reps);
    const auto d_ref =
        game::reference::unfiltered_nucleolus(tab, reference_options);
    row.dense_lps_unfiltered = d_ref.lps_solved;
    row.dense_pivots_unfiltered = d_ref.pivots;
  }
  return row;
}

// Dense-formulation nucleolus of a federation game (the working-set
// loop), next to the unfiltered reference loop where that loop finishes
// in seconds (n <= 8; it takes minutes from n = 9).
struct HeteroRow {
  int n = 0;
  const char* engine = "";
  std::uint64_t rows = 0;
  std::uint64_t rounds = 0;
  std::uint64_t lps = 0;
  std::uint64_t pivots = 0;
  double ms = 0.0;
  bool unfiltered = false;  ///< the *_unfiltered fields were measured
  std::uint64_t lps_unfiltered = 0;
  std::uint64_t pivots_unfiltered = 0;
  double ms_unfiltered = 0.0;
};

HeteroRow measure_dense(const game::TabularGame& tab, lp::SolverKind kind,
                        int reps) {
  const int n = tab.num_players();
  lp::SimplexOptions options;
  options.solver = kind;
  HeteroRow row;
  row.n = n;
  row.engine = lp::to_string(kind);
  const auto r = game::nucleolus(tab, options);
  row.rows = r.excess_rows;
  row.rounds = r.levels.size();
  row.lps = r.lps_solved;
  row.pivots = r.pivots;
  row.ms = time_ms([&] { (void)game::nucleolus(tab, options); }, reps);
  if (n <= 8) {
    row.unfiltered = true;
    game::NucleolusResult ref;
    row.ms_unfiltered = time_ms(
        [&] { ref = game::reference::unfiltered_nucleolus(tab, options); },
        1);
    row.lps_unfiltered = ref.lps_solved;
    row.pivots_unfiltered = ref.pivots;
  }
  return row;
}

// The full-table postcondition, checked from outside the loop: every
// coalition's excess at the answer is at most the last level or sits on
// an earlier one. Returns the number of coalitions that break it.
int excess_scan_failures(const game::NucleolusResult& r,
                         const game::TabularGame& g) {
  if (!r.solved || r.levels.empty()) return 1;
  const double tol = 1e-9 * std::max(1.0, std::abs(g.grand_value()));
  const std::uint64_t grand = (std::uint64_t{1} << g.num_players()) - 1;
  int failures = 0;
  for (std::uint64_t mask = 1; mask < grand; ++mask) {
    double x = 0.0;
    for (int i = 0; i < g.num_players(); ++i) {
      if ((mask >> i) & 1u) x += r.allocation[static_cast<std::size_t>(i)];
    }
    const double excess = g.values()[mask] - x;
    if (excess <= r.levels.back() + tol) continue;
    if (std::none_of(r.levels.begin(), r.levels.end(), [&](double level) {
          return std::abs(excess - level) <= tol;
        })) {
      ++failures;
    }
  }
  return failures;
}

void write_summary_json() {
  std::vector<NucleolusRow> rows;
  rows.push_back(measure_nucleolus(4, 2, 3));  // n = 8
  rows.push_back(measure_nucleolus(5, 2, 3));  // n = 10, dense ceiling
  rows.push_back(measure_nucleolus(4, 3, 3));  // n = 12, quotient only
  rows.push_back(measure_nucleolus(4, 4, 3));  // n = 16 (the headline)
  rows.push_back(measure_nucleolus(4, 5, 1));  // n = 20
  // The default report's path: dense formulation, dense engine at n = 6
  // (the default-report benchmark's size); the n = 8 unfiltered
  // dense-engine loop takes most of a minute, so n = 8 runs on the
  // revised engine. n = 9 and 10 run both engines, without the
  // unfiltered loop.
  std::vector<HeteroRow> hetero;
  const auto kinds = {lp::SolverKind::kDense, lp::SolverKind::kRevised};
  const game::TabularGame hetero6 = hetero_game(6);
  for (const auto kind : kinds) hetero.push_back(measure_dense(hetero6, kind, 5));
  hetero.push_back(measure_dense(hetero_game(8), lp::SolverKind::kRevised, 3));
  for (const int n : {9, 10}) {
    const game::TabularGame tab = hetero_game(n);
    for (const auto kind : kinds) hetero.push_back(measure_dense(tab, kind, 5));
  }
  // The serve roster game, which serve publishes.
  std::vector<HeteroRow> flat;
  const game::TabularGame flat_tab = flat_game();
  for (const auto kind : kinds) flat.push_back(measure_dense(flat_tab, kind, 9));
  const char* out_env = std::getenv("FEDSHARE_BENCH_OUT");
  const std::string path = out_env != nullptr && *out_env != '\0'
                               ? out_env
                               : "BENCH_nucleolus.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perf_nucleolus: cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"nucleolus\",\n";
  out << "  \"workload\": \"typed games (T types x k copies), dense "
         "simplex: dense 2^n-row formulation vs orbit-row quotient; "
         "hetero: distinct-facility federations on the dense formulation; "
         "flat: the serve roster game of perfbench serve_flap (6 "
         "near-additive facilities), dense formulation; hetero and flat "
         "on both engines, revised solving each LP cold; *_unfiltered: "
         "the one-LP-per-row reference loop (revised engine on the typed "
         "cases)\",\n";
  out << "  \"cases\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const NucleolusRow& r = rows[i];
    const double row_ratio =
        r.orbit_rows > 0
            ? static_cast<double>(r.dense_rows) /
                  static_cast<double>(r.orbit_rows)
            : 0.0;
    const double speedup =
        r.dense_attempted && r.quotient_ms > 0.0 ? r.dense_ms / r.quotient_ms
                                                 : 0.0;
    out << "    {\"types\": " << r.types << ", \"copies\": " << r.copies
        << ", \"n\": " << r.n << ", \"dense_rows\": " << r.dense_rows
        << ", \"orbit_rows\": " << r.orbit_rows
        << ", \"row_ratio\": " << row_ratio
        << ", \"dense_attempted\": " << (r.dense_attempted ? "true" : "false")
        << ", \"dense_ms\": " << r.dense_ms
        << ", \"quotient_ms\": " << r.quotient_ms
        << ", \"quotient_ms_unfiltered\": " << r.quotient_ms_unfiltered
        << ", \"speedup\": " << speedup
        << ", \"dense_lps\": " << r.dense_lps
        << ", \"quotient_lps\": " << r.quotient_lps
        << ", \"dense_pivots\": " << r.dense_pivots
        << ", \"quotient_pivots\": " << r.quotient_pivots
        << ", \"dense_lps_unfiltered\": " << r.dense_lps_unfiltered
        << ", \"dense_pivots_unfiltered\": " << r.dense_pivots_unfiltered
        << ", \"quotient_lps_unfiltered\": " << r.quotient_lps_unfiltered
        << ", \"quotient_pivots_unfiltered\": "
        << r.quotient_pivots_unfiltered
        << ", \"max_abs_diff\": " << r.diff << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  const auto write_dense_rows = [&](const char* key,
                                    const std::vector<HeteroRow>& list,
                                    const char* close) {
    out << "  \"" << key << "\": [\n";
    for (std::size_t i = 0; i < list.size(); ++i) {
      const HeteroRow& h = list[i];
      out << "    {\"n\": " << h.n << ", \"engine\": \"" << h.engine
          << "\", \"rows\": " << h.rows << ", \"rounds\": " << h.rounds
          << ", \"lps\": " << h.lps << ", \"pivots\": " << h.pivots
          << ", \"ms\": " << h.ms;
      if (h.unfiltered) {
        out << ", \"lps_unfiltered\": " << h.lps_unfiltered
            << ", \"pivots_unfiltered\": " << h.pivots_unfiltered
            << ", \"ms_unfiltered\": " << h.ms_unfiltered;
      }
      out << "}" << (i + 1 < list.size() ? "," : "") << "\n";
    }
    out << "  ]" << close << "\n";
  };
  write_dense_rows("hetero", hetero, ",");
  write_dense_rows("flat", flat, "");
  out << "}\n";
  std::cout << "(summary written to " << path << ")\n";
}

// --- --smoke: agreement + row-ratio + certification gates -----------------

int run_smoke() {
  constexpr double kAgreeTol = 1e-7;
  int failures = 0;

  // Dense-vs-quotient agreement on every n <= 10 typed case.
  for (const auto& [types, copies] : std::vector<std::pair<int, int>>{
           {2, 2}, {3, 2}, {4, 2}, {2, 4}, {5, 2}}) {
    const NucleolusRow row = measure_nucleolus(types, copies, 1);
    std::cout << "smoke n=" << row.n << " (" << types << "x" << copies
              << "): rows " << row.dense_rows << " -> " << row.orbit_rows
              << ", lps " << row.dense_lps << " -> " << row.quotient_lps
              << " (unfiltered " << row.dense_lps_unfiltered << " -> "
              << row.quotient_lps_unfiltered << ")"
              << ", pivots " << row.dense_pivots << " -> "
              << row.quotient_pivots << ", max_abs_diff=" << row.diff << "\n";
    if (row.diff > kAgreeTol) {
      std::cerr << "perf_nucleolus --smoke: quotient disagrees with dense at "
                   "n="
                << row.n << " (diff " << row.diff << ", tol " << kAgreeTol
                << ")\n";
      ++failures;
    }
    // The quotient's LP saving is a property of the formulation (one row
    // per orbit instead of per mask), so it is gated on the one-LP-per-row
    // reference loop. The tightness filters settle these games in the same
    // handful of LPs in both formulations; there the saving shows in the
    // work per LP: never more LPs, strictly fewer pivots.
    if (row.quotient_lps_unfiltered >= row.dense_lps_unfiltered) {
      std::cerr << "perf_nucleolus --smoke: quotient saved no LPs at n="
                << row.n << " (" << row.quotient_lps_unfiltered << " vs "
                << row.dense_lps_unfiltered << ", unfiltered loop)\n";
      ++failures;
    }
    if (row.quotient_lps > row.dense_lps ||
        row.quotient_pivots >= row.dense_pivots) {
      std::cerr << "perf_nucleolus --smoke: quotient saved no work at n="
                << row.n << " (lps " << row.quotient_lps << " vs "
                << row.dense_lps << ", pivots " << row.quotient_pivots
                << " vs " << row.dense_pivots << ")\n";
      ++failures;
    }
  }

  // Bitwise gate on the dyadic two-type family (2 + 2 players, power-of-
  // two multiplicities): every simplex ratio is exactly representable,
  // so the two formulations produce the identical doubles.
  {
    const auto partition = typed_partition(2, 2);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const game::TabularGame tab =
          game::tabulate(typed_game(partition, seed * 7919));
      const auto d = game::nucleolus(tab);
      const game::QuotientGame quotient(tab, partition);
      const auto q = game::nucleolus_quotient(quotient);
      const double diff = max_abs_diff(d.allocation, q.allocation);
      if (diff != 0.0) {
        std::cerr << "perf_nucleolus --smoke: dyadic family seed " << seed
                  << " not bitwise identical (diff " << diff
                  << ", want exactly 0)\n";
        ++failures;
      }
    }
    std::cout << "smoke dyadic 2x2 family: bitwise across 5 seeds\n";
  }

  // n = 16 headline: dense must refuse, quotient must solve, and the
  // per-probe row count must shrink by >= 50x.
  {
    const auto partition = typed_partition(4, 4);
    const game::FunctionGame base = typed_game(partition, 1);
    bool dense_refused = false;
    try {
      (void)game::nucleolus(base);
    } catch (const std::invalid_argument&) {
      dense_refused = true;
    }
    if (!dense_refused) {
      std::cerr << "perf_nucleolus --smoke: dense accepted n=16 (the row "
                   "guard is gone)\n";
      ++failures;
    }
    const game::QuotientGame quotient(base, partition);
    const auto q = game::nucleolus_quotient(quotient);
    const std::uint64_t dense_rows = (std::uint64_t{1} << 16) - 2;
    std::cout << "smoke n=16: quotient solved=" << (q.solved ? 1 : 0)
              << " rows " << dense_rows << " -> " << q.excess_rows << " ("
              << (q.excess_rows > 0
                      ? static_cast<double>(dense_rows) /
                            static_cast<double>(q.excess_rows)
                      : 0.0)
              << "x)\n";
    if (!q.solved) {
      std::cerr << "perf_nucleolus --smoke: quotient failed at n=16\n";
      ++failures;
    }
    if (q.excess_rows * 50 > dense_rows) {
      std::cerr << "perf_nucleolus --smoke: row reduction below 50x at n=16 ("
                << dense_rows << " vs " << q.excess_rows << ")\n";
      ++failures;
    }
    double sum = 0.0;
    for (const double x : q.allocation) sum += x;
    const double vn = base.value(game::Coalition::grand(16));
    if (std::abs(sum - vn) > 1e-6 * std::max(1.0, std::abs(vn))) {
      std::cerr << "perf_nucleolus --smoke: n=16 allocation is not efficient "
                   "(sum "
                << sum << " vs V(N) " << vn << ")\n";
      ++failures;
    }
  }

  // LP-ratio gate on the default report's path: a heterogeneous n = 8
  // dense-engine nucleolus. The unfiltered loop runs one LP per active
  // row per round, so rows x rounds bounds its count from below; the
  // filters must cut that to at most 10%.
  {
    const game::TabularGame tab = hetero_game(8);
    const auto r = game::nucleolus(tab, lp::SimplexOptions{});
    const std::uint64_t unfiltered = r.excess_rows * r.levels.size();
    std::cout << "smoke hetero n=8 dense: solved=" << (r.solved ? 1 : 0)
              << " rounds=" << r.levels.size() << " lps=" << r.lps_solved
              << " (rows x rounds = " << unfiltered << ")\n";
    if (!r.solved || r.lps_solved * 10 > unfiltered) {
      std::cerr << "perf_nucleolus --smoke: LP-ratio gate failed at "
                   "hetero n=8 ("
                << r.lps_solved << " LPs vs " << unfiltered
                << " rows x rounds; want <= 10%)\n";
      ++failures;
    }
  }

  // Certification gate: every LP of a full run carries a validated
  // certificate (or is repaired by the cascade) — the orbit-row chain on
  // a typed game and the dense-formulation chain (rounds, release
  // passes and probes) on the heterogeneous n = 8 game, both engines.
  const auto certify = [&](const char* what, lp::SolverKind kind,
                           const auto& solve) {
    lp::SimplexOptions options;
    options.solver = kind;
    verify::VerifyOptions verify_options;
    verify_options.level = verify::VerifyLevel::kFull;
    verify::CertifyingObserver observer(verify_options, options);
    options.observer = &observer;
    const game::NucleolusResult r = solve(options);
    const auto stats = observer.stats();
    std::cout << "smoke certify " << what << " (" << lp::to_string(kind)
              << "): solves=" << stats.solves
              << " failures=" << stats.failures << "\n";
    if (!r.solved || stats.solves != r.lps_solved || stats.failures != 0) {
      std::cerr << "perf_nucleolus --smoke: certification gate failed for "
                << what << " (solves " << stats.solves << " vs lps "
                << r.lps_solved << ", failures " << stats.failures << ")\n";
      ++failures;
    }
  };
  {
    const auto partition = typed_partition(4, 2);
    const game::TabularGame tab = game::tabulate(typed_game(partition, 1));
    const game::QuotientGame quotient(tab, partition);
    const game::TabularGame hetero = hetero_game(8);
    for (const auto kind : {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
      certify("typed 4x2 quotient", kind, [&](const lp::SimplexOptions& o) {
        return game::nucleolus_quotient(quotient, o);
      });
      certify("hetero n=8 dense formulation", kind,
              [&](const lp::SimplexOptions& o) {
                return game::nucleolus(hetero, o);
              });
    }
  }

  // Working-set gate past the reach of the unfiltered loop: the
  // heterogeneous n = 9 game (510 rows) solves on both engines, every
  // LP certified, and passes the full-table excess scan.
  {
    const game::TabularGame hetero = hetero_game(9);
    for (const auto kind : {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
      game::NucleolusResult solved;
      certify("hetero n=9 working set", kind,
              [&](const lp::SimplexOptions& o) {
                solved = game::nucleolus(hetero, o);
                return solved;
              });
      const int broken = excess_scan_failures(solved, hetero);
      std::cout << "smoke hetero n=9 (" << lp::to_string(kind)
                << "): rounds=" << solved.levels.size()
                << " lps=" << solved.lps_solved
                << " full-table scan failures=" << broken << "\n";
      if (broken != 0) {
        std::cerr << "perf_nucleolus --smoke: hetero n=9 answer fails the "
                     "full-table excess scan ("
                  << broken << " coalitions)\n";
        ++failures;
      }
    }
  }

  // Flat-game gate: the serve roster game, where most rows are tight at
  // the least core, solves on both engines to the same allocation.
  {
    const game::TabularGame flat = flat_game();
    std::vector<game::NucleolusResult> runs;
    for (const auto kind : {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
      lp::SimplexOptions options;
      options.solver = kind;
      runs.push_back(game::nucleolus(flat, options));
      std::cout << "smoke flat n=6 (" << lp::to_string(kind)
                << "): solved=" << (runs.back().solved ? 1 : 0)
                << " lps=" << runs.back().lps_solved
                << " pivots=" << runs.back().pivots << "\n";
    }
    if (!runs[0].solved || !runs[1].solved ||
        max_abs_diff(runs[0].allocation, runs[1].allocation) > kAgreeTol) {
      std::cerr << "perf_nucleolus --smoke: flat game unsolved or the "
                   "engines disagree\n";
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
