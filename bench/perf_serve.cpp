// Serve-layer macrobenchmark: churn-event throughput of the
// epoch-versioned ServiceState and the payoff of its incremental
// re-solve machinery.
//
// The headline workload is a 6-facility federation under single-facility
// churn (outage flaps, leave/rejoin cycles) with a two-class demand
// profile, so each location's share of the grand coalition's relaxation
// bound fills two classes. The binary writes BENCH_serve.json (override
// with FEDSHARE_BENCH_OUT) with events/sec, the V(S) work against a cold
// re-tabulation, the apply time and V(S) work of first-visit and
// revisited outage-starts, and the p99 query staleness (in epochs) under
// a deliberately hostile per-event deadline. `--smoke` is a fast gate —
// on single-facility churn every epoch's bound must lie within 1e-12
// (relative) of the relaxation's dense LP, the service must recompute
// strictly fewer V(S) than a cold re-tabulation, every outage-end must
// take its slice from the V(S) memo (no V(S) recomputed), reuse the
// memoised answer and be bitwise the pre-outage one, no revisited
// outage-start may recompute a V(S), and a fresh log replay must
// reproduce the answer bit for bit — run by tools/check.sh as a
// perf-smoke stage.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "alloc/lp_relax.hpp"
#include "runtime/budget.hpp"
#include "serve/event.hpp"
#include "serve/log.hpp"
#include "serve/maintenance.hpp"
#include "serve/state.hpp"

namespace {

using namespace fedshare;

constexpr int kRoster = 6;

serve::Event join_event(int i) {
  serve::FacilityJoin join;
  join.config.name = "F" + std::to_string(i);
  join.config.num_locations = 3 + i % 3;
  join.config.units_per_location = 1.0 + 0.5 * (i % 2);
  join.config.availability = 1.0 - 0.05 * i;
  return join;
}

serve::Event demand_event() {
  // Two request classes: each location's share of the relaxation fills
  // both, in ascending units.
  serve::DemandUpdate update;
  update.demand = model::DemandProfile::uniform(8.0, 6.0);
  model::RequestClass second;
  second.count = 3.0;
  second.min_locations = 2.0;
  second.units_per_location = 2.0;
  update.demand.classes.push_back(second);
  return update;
}

// A warmed-up service: demand + kRoster joins, lattice and bound fully
// materialised.
void assemble(serve::ServiceState& state) {
  (void)state.apply(demand_event());
  for (int i = 0; i < kRoster; ++i) (void)state.apply(join_event(i));
}

// The steady-state churn script: outage flaps and leave/rejoin cycles,
// every event touching exactly one facility (the single-facility churn
// of the acceptance gate).
std::vector<serve::Event> churn_script(int flaps) {
  std::vector<serve::Event> script;
  for (int i = 0; i < flaps; ++i) {
    const int f = i % kRoster;
    const std::string name = "F" + std::to_string(f);
    if (i % 5 == 4) {
      script.emplace_back(serve::FacilityLeave{name});
      script.push_back(join_event(f));
    } else {
      script.emplace_back(
          serve::OutageStart{name, static_cast<std::uint64_t>(i + 1),
                             static_cast<std::uint64_t>(i % 4)});
      script.emplace_back(serve::OutageEnd{name});
    }
  }
  return script;
}

// --- google-benchmark timings --------------------------------------------

void BM_OutageFlap(benchmark::State& state) {
  serve::ServiceState service;
  assemble(service);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    (void)service.apply(serve::Event{serve::OutageStart{"F2", seed++, 0}});
    (void)service.apply(serve::Event{serve::OutageEnd{"F2"}});
    benchmark::DoNotOptimize(service.query().grand_value);
  }
}
BENCHMARK(BM_OutageFlap);

void BM_LeaveRejoin(benchmark::State& state) {
  serve::ServiceState service;
  assemble(service);
  for (auto _ : state) {
    (void)service.apply(serve::Event{serve::FacilityLeave{"F3"}});
    (void)service.apply(join_event(3));
    benchmark::DoNotOptimize(service.query().grand_value);
  }
}
BENCHMARK(BM_LeaveRejoin);

void BM_ColdAssembly(benchmark::State& state) {
  for (auto _ : state) {
    serve::ServiceState service;
    assemble(service);
    benchmark::DoNotOptimize(service.query().grand_value);
  }
}
BENCHMARK(BM_ColdAssembly);

// --- BENCH_serve.json -----------------------------------------------------

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(xs.size()) - 1.0,
                       std::ceil(p * static_cast<double>(xs.size())) - 1.0));
  return xs[idx];
}

// Every field an answer publishes, bit for bit, epoch tags aside.
bool same_rows(const serve::EpochAnswer& a, const serve::EpochAnswer& b) {
  bool same = a.names == b.names && a.grand_value == b.grand_value &&
              a.grand_bound == b.grand_bound &&
              a.standalone == b.standalone && a.incentives == b.incentives &&
              a.outcomes.size() == b.outcomes.size() &&
              a.skipped.size() == b.skipped.size();
  for (std::size_t s = 0; same && s < a.outcomes.size(); ++s) {
    same = a.outcomes[s].shares == b.outcomes[s].shares &&
           a.outcomes[s].payoffs == b.outcomes[s].payoffs &&
           a.outcomes[s].in_core == b.outcomes[s].in_core;
  }
  for (std::size_t s = 0; same && s < a.skipped.size(); ++s) {
    same = a.skipped[s].note() == b.skipped[s].note();
  }
  return same;
}

bool answers_bitwise_equal(const serve::EpochAnswer& a,
                           const serve::EpochAnswer& b) {
  return a.epoch == b.epoch && same_rows(a, b);
}

struct ChurnMeasurement {
  double events_per_sec = 0.0;
  std::uint64_t applies = 0;
  /// Largest |bound - LP| / max(1, |LP|) over the churn epochs, against
  /// the relaxation's dense LP on the epoch's effective grand pool.
  double bound_gap = 0.0;
  /// Epochs that published no bound (the demand is in its domain, so
  /// there should be none).
  std::uint64_t bounds_missing = 0;
  std::uint64_t values_recomputed = 0;
  std::uint64_t values_cold_equivalent = 0;
  /// Applies whose published rows came from the answer memo.
  std::uint64_t answers_reused = 0;
  std::uint64_t outage_ends = 0;
  /// Outage-ends that recomputed a V(S), did not reuse the memo, or
  /// whose answer was not bitwise the pre-outage one (the roster is
  /// back and nothing else changed, so none should).
  std::uint64_t outage_ends_not_restored = 0;
  double median_apply_ms = 0.0;
};

// The relaxation bound's distance from the dense LP on `snap`'s
// effective grand pool, relative to max(1, |LP|); nullopt when the
// snapshot published no bound.
std::optional<double> bound_gap(const serve::ServiceState::Snapshot& snap) {
  if (!snap.answer.grand_bound) return std::nullopt;
  const double lp = alloc::lp_upper_bound(
      snap.space.pool_for(game::Coalition::grand(snap.answer.num_facilities)),
      snap.demand.classes);
  return std::abs(*snap.answer.grand_bound - lp) / std::max(1.0, std::abs(lp));
}

// Runs the churn script under an unlimited budget and totals the
// incremental re-solve work; V(S) work is set against the cold-
// equivalent baseline (a from-scratch tabulation of every churn epoch).
// With `check_bounds`, every epoch's bound is set against the dense LP
// (outside the timed applies).
ChurnMeasurement measure_churn(int flaps, bool check_bounds) {
  serve::ServiceState service;
  assemble(service);
  const std::vector<serve::Event> script = churn_script(flaps);

  ChurnMeasurement m;
  std::vector<double> apply_ms;
  apply_ms.reserve(script.size());
  serve::EpochAnswer pre_outage;
  for (const serve::Event& event : script) {
    const bool outage_start = std::holds_alternative<serve::OutageStart>(event);
    const bool outage_end = std::holds_alternative<serve::OutageEnd>(event);
    if (outage_start) pre_outage = service.query();
    const auto e0 = std::chrono::steady_clock::now();
    const serve::ApplyResult r = service.apply(event);
    const auto e1 = std::chrono::steady_clock::now();
    apply_ms.push_back(
        std::chrono::duration<double, std::milli>(e1 - e0).count());
    m.answers_reused += r.answer_reused ? 1 : 0;
    if (outage_end) {
      ++m.outage_ends;
      if (r.values_recomputed != 0 || !r.answer_reused ||
          !same_rows(service.query(), pre_outage)) {
        ++m.outage_ends_not_restored;
      }
    }
    ++m.applies;
    if (check_bounds) {
      if (const auto gap = bound_gap(*service.snapshot())) {
        m.bound_gap = std::max(m.bound_gap, *gap);
      } else {
        ++m.bounds_missing;
      }
    }
    m.values_recomputed += r.values_recomputed;
    m.values_cold_equivalent += (std::uint64_t{1} << kRoster) - 1;
  }
  // Throughput counts apply time only, not the answer checks above.
  const double total_s =
      std::accumulate(apply_ms.begin(), apply_ms.end(), 0.0) / 1000.0;
  m.events_per_sec =
      total_s > 0.0 ? static_cast<double>(script.size()) / total_s : 0.0;
  m.median_apply_ms = percentile(apply_ms, 0.5);
  return m;
}

struct StalenessMeasurement {
  double p99_staleness_epochs = 0.0;
  double max_staleness_epochs = 0.0;
  double tripped_fraction = 0.0;
  double deadline_ms = 0.0;
  std::uint64_t repairs = 0;
};

// Re-runs the churn under a per-event deadline tuned to trip a fraction
// of the applies. After every apply the published answer's staleness
// (current epoch minus answered epoch) is sampled — that is what a
// reader observes — and its p99 is the staleness bound the service
// actually delivers. A tripped apply leaves a backlog the next apply
// inherits, so like a real deployment the loop caps staleness with a
// maintenance repair() once the answer lags kRepairThreshold epochs
// (the "bounded" half of stale-but-bounded).
constexpr std::uint64_t kRepairThreshold = 8;

StalenessMeasurement measure_staleness(int flaps, double deadline_ms) {
  serve::ServiceState service;
  assemble(service);
  const std::vector<serve::Event> script = churn_script(flaps);

  StalenessMeasurement m;
  m.deadline_ms = deadline_ms;
  std::vector<double> staleness;
  staleness.reserve(script.size());
  std::size_t tripped = 0;
  for (const serve::Event& event : script) {
    const serve::ApplyResult r = service.apply(
        event, runtime::ComputeBudget::with_deadline_ms(deadline_ms));
    if (!r.complete) ++tripped;
    const serve::EpochAnswer answer = service.query();
    staleness.push_back(
        static_cast<double>(answer.current_epoch - answer.epoch));
    if (answer.current_epoch - answer.epoch >= kRepairThreshold) {
      (void)service.repair();
      ++m.repairs;
    }
  }
  m.p99_staleness_epochs = percentile(staleness, 0.99);
  m.max_staleness_epochs =
      staleness.empty()
          ? 0.0
          : *std::max_element(staleness.begin(), staleness.end());
  m.tripped_fraction = script.empty()
                           ? 0.0
                           : static_cast<double>(tripped) /
                                 static_cast<double>(script.size());
  return m;
}

// --- revisited outage draws ----------------------------------------------

struct RevisitMeasurement {
  /// Outage-starts whose realised outage (the facility's surviving
  /// units) the service had not seen before, and the others.
  std::uint64_t first_visits = 0;
  std::uint64_t revisits = 0;
  /// Median apply time of each kind of outage-start.
  double first_visit_start_ms = 0.0;
  double revisit_start_ms = 0.0;
  std::uint64_t first_visit_values_recomputed = 0;
  std::uint64_t revisit_values_recomputed = 0;
};

// Flaps every facility through seeds 1..8 x scenarios 0..3, twice, on
// kRevisitRounds freshly assembled services. An outage-start is a first
// visit when its facility's realised units (read from the published
// space, so any build classifies alike) are new to the service: it
// re-tabulates the facility's masks. Every other start revisits a state
// whose values the V(S) memo holds.
constexpr int kRevisitRounds = 20;

RevisitMeasurement measure_revisits() {
  std::vector<serve::OutageStart> starts;
  for (int pass = 0; pass < 2; ++pass) {
    for (int f = 0; f < kRoster; ++f) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (std::uint64_t scenario = 0; scenario <= 3; ++scenario) {
          starts.push_back({"F" + std::to_string(f), seed, scenario});
        }
      }
    }
  }
  RevisitMeasurement m;
  std::vector<double> first_ms;
  std::vector<double> revisit_ms;
  for (int round = 0; round < kRevisitRounds; ++round) {
    serve::ServiceState service;
    assemble(service);
    std::vector<std::vector<std::vector<double>>> seen(kRoster);
    for (const serve::OutageStart& start : starts) {
      const auto t0 = std::chrono::steady_clock::now();
      const serve::ApplyResult r = service.apply(serve::Event{start});
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const int f = std::stoi(start.name.substr(1));
      const std::vector<double>& units =
          service.snapshot()->space.facility(f).config().custom_units;
      auto& known = seen[static_cast<std::size_t>(f)];
      if (std::find(known.begin(), known.end(), units) == known.end()) {
        known.push_back(units);
        first_ms.push_back(ms);
        m.first_visit_values_recomputed += r.values_recomputed;
        ++m.first_visits;
      } else {
        revisit_ms.push_back(ms);
        m.revisit_values_recomputed += r.values_recomputed;
        ++m.revisits;
      }
      (void)service.apply(serve::Event{serve::OutageEnd{start.name}});
    }
  }
  m.first_visit_start_ms = percentile(first_ms, 0.5);
  m.revisit_start_ms = percentile(revisit_ms, 0.5);
  return m;
}

// --- crash recovery -------------------------------------------------------

struct RecoveryMeasurement {
  double recovery_ms = 0.0;     ///< newest checkpoint + suffix replay
  double cold_replay_ms = 0.0;  ///< same log, checkpoints removed
  std::uint64_t replay_suffix_events = 0;
  std::uint64_t cold_replay_events = 0;
  std::uint64_t checkpoint_every = 0;
  bool bitwise_identical = false;  ///< both recoveries == uncrashed run
};

// Builds a durable log of the assembly + churn history (checkpointing
// every `checkpoint_every` epochs), then times recovery twice: from the
// newest checkpoint (the crash-restart path) and — with the checkpoints
// deleted — as a full replay from epoch 0 (the pre-checkpoint
// baseline). Both must reproduce the uncrashed answer bit for bit; the
// checkpoint path replays only N mod checkpoint_every events.
RecoveryMeasurement measure_recovery(int flaps,
                                     std::uint64_t checkpoint_every) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("fedshare_perf_serve_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  RecoveryMeasurement m;
  m.checkpoint_every = checkpoint_every;
  serve::DurableLogOptions options;
  options.checkpoint_every = checkpoint_every;

  serve::EpochAnswer reference;
  {
    serve::DurableLog log(dir, options);
    serve::ServiceState state;
    (void)log.recover(state);
    std::vector<serve::Event> history;
    history.push_back(demand_event());
    for (int i = 0; i < kRoster; ++i) history.push_back(join_event(i));
    for (serve::Event& event : churn_script(flaps)) {
      history.push_back(std::move(event));
    }
    for (const serve::Event& event : history) {
      (void)state.apply(event);
      log.append(event, state);
    }
    reference = state.query();
  }

  {
    const auto t0 = std::chrono::steady_clock::now();
    serve::DurableLog log(dir, options);
    serve::ServiceState state;
    const serve::RecoveryReport report = log.recover(state);
    const auto t1 = std::chrono::steady_clock::now();
    m.recovery_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    m.replay_suffix_events = report.replayed_events;
    m.bitwise_identical = answers_bitwise_equal(state.query(), reference);
  }

  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") fs::remove(entry.path());
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    serve::DurableLog log(dir, options);
    serve::ServiceState state;
    const serve::RecoveryReport report = log.recover(state);
    const auto t1 = std::chrono::steady_clock::now();
    m.cold_replay_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    m.cold_replay_events = report.replayed_events;
    m.bitwise_identical =
        m.bitwise_identical && answers_bitwise_equal(state.query(), reference);
  }
  fs::remove_all(dir);
  return m;
}

void write_summary_json() {
  const ChurnMeasurement churn = measure_churn(120, false);
  // Only the exponential stage (tabulation) runs under the budget —
  // the bound and snapshot publication are the polynomial floor — so
  // the deadline that actually trips applies is well below the full
  // apply time. Walk it down until a visible fraction of events trips.
  StalenessMeasurement stale;
  double deadline = std::max(0.005, 0.5 * churn.median_apply_ms);
  for (int attempt = 0; attempt < 6; ++attempt) {
    stale = measure_staleness(120, deadline);
    if (stale.tripped_fraction >= 0.05) break;
    deadline /= 5.0;
  }

  const RecoveryMeasurement recovery = measure_recovery(120, 32);
  const RevisitMeasurement revisit = measure_revisits();

  const char* out_env = std::getenv("FEDSHARE_BENCH_OUT");
  const std::string path =
      out_env != nullptr && *out_env != '\0' ? out_env : "BENCH_serve.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perf_serve: cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"serve\",\n";
  out << "  \"workload\": \"6-facility federation, two-class demand, "
         "single-facility churn (outage flaps + leave/rejoin), "
         "epoch-versioned incremental re-solve vs cold re-tabulation\",\n";
  out << "  \"events_per_sec\": " << churn.events_per_sec << ",\n";
  out << "  \"median_apply_ms\": " << churn.median_apply_ms << ",\n";
  out << "  \"applies\": " << churn.applies << ",\n";
  out << "  \"values_recomputed_total\": " << churn.values_recomputed
      << ",\n";
  out << "  \"values_cold_retabulation_total\": "
      << churn.values_cold_equivalent << ",\n";
  out << "  \"answers_reused\": " << churn.answers_reused << ",\n";
  out << "  \"first_visit_starts\": " << revisit.first_visits << ",\n";
  out << "  \"first_visit_start_ms\": " << revisit.first_visit_start_ms
      << ",\n";
  out << "  \"first_visit_values_recomputed\": "
      << revisit.first_visit_values_recomputed << ",\n";
  out << "  \"revisited_starts\": " << revisit.revisits << ",\n";
  out << "  \"revisit_start_ms\": " << revisit.revisit_start_ms << ",\n";
  out << "  \"revisit_values_recomputed\": "
      << revisit.revisit_values_recomputed << ",\n";
  out << "  \"staleness_deadline_ms\": " << stale.deadline_ms << ",\n";
  out << "  \"tripped_fraction\": " << stale.tripped_fraction << ",\n";
  out << "  \"maintenance_repairs\": " << stale.repairs << ",\n";
  out << "  \"p99_staleness_epochs\": " << stale.p99_staleness_epochs
      << ",\n";
  out << "  \"max_staleness_epochs\": " << stale.max_staleness_epochs
      << ",\n";
  out << "  \"checkpoint_every\": " << recovery.checkpoint_every << ",\n";
  out << "  \"recovery_ms\": " << recovery.recovery_ms << ",\n";
  out << "  \"replay_suffix_events\": " << recovery.replay_suffix_events
      << ",\n";
  out << "  \"cold_replay_ms\": " << recovery.cold_replay_ms << ",\n";
  out << "  \"cold_replay_events\": " << recovery.cold_replay_events
      << ",\n";
  out << "  \"recovery_bitwise_identical\": "
      << (recovery.bitwise_identical ? "true" : "false") << "\n";
  out << "}\n";
  std::cout << "(summary written to " << path << ")\n";
}

// --- --smoke: bound-equals-LP and incremental-beats-cold gate -------------

int run_smoke() {
  int failures = 0;

  const ChurnMeasurement churn = measure_churn(30, true);
  std::cout << "smoke churn: applies=" << churn.applies
            << " bound_gap=" << churn.bound_gap
            << " bounds_missing=" << churn.bounds_missing
            << " values_recomputed=" << churn.values_recomputed
            << " values_cold_retabulation=" << churn.values_cold_equivalent
            << " answers_reused=" << churn.answers_reused
            << " outage_ends=" << churn.outage_ends
            << " outage_ends_not_restored=" << churn.outage_ends_not_restored
            << "\n";
  if (churn.bounds_missing != 0 || churn.bound_gap > 1e-12) {
    std::cerr << "perf_serve --smoke: the bound left the relaxation's "
                 "dense LP (worst relative gap "
              << churn.bound_gap << ", " << churn.bounds_missing
              << " epochs without a bound)\n";
    ++failures;
  }
  if (churn.values_recomputed >= churn.values_cold_equivalent) {
    std::cerr << "perf_serve --smoke: incremental tabulation recomputed "
                 "no fewer V(S) than cold ("
              << churn.values_recomputed << " vs "
              << churn.values_cold_equivalent << ")\n";
    ++failures;
  }

  if (churn.outage_ends == 0 || churn.outage_ends_not_restored != 0) {
    std::cerr << "perf_serve --smoke: " << churn.outage_ends_not_restored
              << " of " << churn.outage_ends
              << " outage-ends did not restore their slice and reuse the "
                 "memoised answer bitwise equal to the pre-outage one\n";
    ++failures;
  }

  // Revisited draws: the V(S) memo holds every value a revisited
  // outage-start needs.
  const RevisitMeasurement revisit = measure_revisits();
  std::cout << "smoke revisits: first_visits=" << revisit.first_visits
            << " first_visit_values_recomputed="
            << revisit.first_visit_values_recomputed
            << " revisits=" << revisit.revisits
            << " revisit_values_recomputed="
            << revisit.revisit_values_recomputed << "\n";
  if (revisit.first_visit_values_recomputed == 0 ||
      revisit.revisit_values_recomputed != 0) {
    std::cerr << "perf_serve --smoke: revisited outage-starts recomputed "
              << revisit.revisit_values_recomputed
              << " V(S) (first visits "
              << revisit.first_visit_values_recomputed
              << "); a revisit must recompute none\n";
    ++failures;
  }

  // Replay determinism: a fresh state fed the same log must publish the
  // same answer, bit for bit.
  serve::ServiceState service;
  assemble(service);
  for (const serve::Event& event : churn_script(10)) {
    (void)service.apply(event);
  }
  serve::ServiceState replica;
  replica.replay_log(service.log());
  const serve::EpochAnswer a = service.query();
  const serve::EpochAnswer b = replica.query();
  const bool identical = answers_bitwise_equal(a, b);
  std::cout << "smoke replay: epoch=" << a.epoch
            << " identical=" << (identical ? "yes" : "no") << "\n";
  if (!identical) {
    std::cerr << "perf_serve --smoke: log replay did not reproduce the "
                 "published answer\n";
    ++failures;
  }

  // Crash recovery: restart from the newest checkpoint must replay only
  // the post-checkpoint suffix (< checkpoint_every events) and still be
  // bitwise identical to the uncrashed run — as must the checkpoint-less
  // full replay.
  const RecoveryMeasurement recovery = measure_recovery(30, 16);
  std::cout << "smoke recovery: suffix_events="
            << recovery.replay_suffix_events
            << " cold_replay_events=" << recovery.cold_replay_events
            << " identical=" << (recovery.bitwise_identical ? "yes" : "no")
            << "\n";
  if (recovery.replay_suffix_events >= recovery.checkpoint_every) {
    std::cerr << "perf_serve --smoke: checkpointed recovery replayed "
              << recovery.replay_suffix_events
              << " events, expected fewer than checkpoint_every="
              << recovery.checkpoint_every << "\n";
    ++failures;
  }
  if (recovery.replay_suffix_events >= recovery.cold_replay_events) {
    std::cerr << "perf_serve --smoke: checkpointed recovery replayed no "
                 "fewer events than a full replay ("
              << recovery.replay_suffix_events << " vs "
              << recovery.cold_replay_events << ")\n";
    ++failures;
  }
  if (!recovery.bitwise_identical) {
    std::cerr << "perf_serve --smoke: recovery was not bitwise identical "
                 "to the uncrashed run\n";
    ++failures;
  }

  // Maintenance: a budget-tripped epoch must heal in the background —
  // no subsequent event, no inline repair — and land on the same bits
  // as an untripped apply.
  {
    serve::ServiceState reference;
    assemble(reference);
    const serve::Event flap{serve::OutageStart{"F1", 99, 2}};
    (void)reference.apply(flap);

    serve::ServiceState tripped;
    assemble(tripped);
    const serve::ApplyResult r =
        tripped.apply(flap, runtime::ComputeBudget().cap_nodes(0));
    serve::MaintenanceOptions options;
    options.initial_backoff_ms = 0.1;
    options.poll_interval_ms = 0.1;
    serve::MaintenanceThread maintenance(tripped, options);
    maintenance.notify();
    const bool healed = maintenance.wait_until_clean(30'000.0);
    maintenance.stop();
    const bool identical =
        answers_bitwise_equal(tripped.query(), reference.query());
    std::cout << "smoke maintenance: tripped=" << (r.complete ? "no" : "yes")
              << " healed=" << (healed ? "yes" : "no")
              << " identical=" << (identical ? "yes" : "no") << "\n";
    if (r.complete || !healed || !identical) {
      std::cerr << "perf_serve --smoke: background maintenance did not "
                   "heal the tripped epoch to the uncrashed answer\n";
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
