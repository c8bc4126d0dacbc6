// fedbench: the fedshare end-to-end benchmark program.
//
//   fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--ops <k>]
//   fedbench --check-checker
//
// A run generates its inputs from --seed, builds the workload's state
// several times (setup_s is the median), runs a few untimed warm-up
// ops, then times a fixed list of 100 ops (--ops overrides the count) in
// as many passes as take about --seconds on the reference host. Every
// op's output is checked. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run re-times a share of the ops layer by layer and prints the
// per-layer ones instead. --check-checker proves the correctness checks
// reject corrupted outputs. See perfbench/README.md.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cli/runner.hpp"
#include "exec/pool.hpp"
#include "inputs.hpp"
#include "io/config.hpp"
#include "workloads.hpp"

namespace fedbench {
namespace {

// Per-workload run shape. `ops_per_s` fixes the pass count:
// max(kMinPasses, round(seconds * ops_per_s / ops)). It is near the rate
// of op runs, checks included, on the reference host (4 cores at 2.0 GHz,
// one thread): about 9/s for report_hetero and 65/s for serve_flap, whose
// figure is set lower to leave the slower workload room in the time a
// full comparison may take. Counts shape a run, so every run of one seed
// does the same work; elapsed time only cuts a run short (see kOverrun).
struct Plan {
  const char* name;
  double ops_per_s;
  std::size_t warmup;      ///< untimed ops before the timed list
  int setup_reps;          ///< fresh set-ups per run, at least
  std::size_t trace_ops;   ///< ops re-timed layer by layer (--trace 1)
};

constexpr Plan kPlans[] = {
    {"report_hetero", 8.0, 3, 21, 40},
    {"serve_flap", 50.0, 12, 15, 120},
};

// Timed ops per run: enough that ten lie beyond the p90.
constexpr std::size_t kOps = 100;

// The timed list runs in passes, and an op's latency is the fastest of
// its runs. The host's speed drifts (the same op can take 1.6x longer in
// a slow phase), so each op runs once per pass, the passes spread over
// the whole run, and each pass moves every op to the next CPU.
constexpr std::size_t kMinPasses = 2;

// On a host far slower than the reference, a run starts no pass (after
// kMinPasses) that would end later than kOverrun * --seconds.
constexpr double kOverrun = 1.3;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"latency_ms_p50", "ms"}, {"latency_ms_p90", "ms"},
    {"ops_per_s", "1/s"},     {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"io.parse_ms", "ms"},
    {"model.federation_ms", "ms"},
    {"model.tabulate_ms", "ms"},
    {"model.weights_ms", "ms"},
    {"model.coalitions", "count"},
    {"model.us_per_coalition", "us"},
    {"exec.cache_hits", "count"},
    {"exec.cache_misses", "count"},
    {"exec.cache_hit_rate", "fraction"},
    {"core.properties_ms", "ms"},
    {"core.shapley_ms", "ms"},
    {"core.banzhaf_ms", "ms"},
    {"core.core_check_ms", "ms"},
    {"core.nucleolus_ms", "ms"},
    {"core.nucleolus_rows", "count"},
    {"lp.solves", "count"},
    {"lp.pivots", "count"},
    {"lp.pivots_per_solve", "count"},
    {"lp.ms_per_solve", "ms"},
    {"serve.apply_outage_start_ms", "ms"},
    {"serve.apply_outage_end_ms", "ms"},
    {"serve.query_ms", "ms"},
    {"serve.publish_ms", "ms"},
    {"serve.resolve_ms", "ms"},
    {"serve.invalidated", "count"},
    {"serve.values_recomputed", "count"},
    {"serve.lp_solves", "count"},
    {"serve.lp_warm_frac", "fraction"},
    {"serve.lp_pivots", "count"},
    {"serve.revisit_frac", "fraction"},
    {"cli.report_ms", "ms"},
    {"cli.unattributed_ms", "ms"},
    {"cli.layer_coverage", "fraction"},
    {"trace.overhead_ms", "ms"},
    {"share.model", "fraction"},
    {"share.core", "fraction"},
    {"share.nucleolus", "fraction"},
    {"share.serve_publish", "fraction"},
    {"share.serve_resolve", "fraction"},
    {"share.unattributed", "fraction"},
    {"failed_frac", "fraction"},
};

// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

// Peak resident set of this process image (VmHWM). getrusage's
// ru_maxrss would also count the launching process's peak, which Linux
// carries across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// The CPUs this process may run on. Ops are pinned to them in rotation:
// on a shared host each CPU's speed drifts on its own (a busy neighbour
// on its sibling thread slows it), so a run that stayed on one CPU would
// measure that CPU's luck. One thread runs at a time either way.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return cpus_.size(); }

  /// Moves the calling thread to CPU number `k` of the rotation.
  void pin(std::size_t k) const {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[k % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
};

// Attempted/failed tally; prints the first few failure reasons.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool finished_ok = true;

  void record(std::size_t i, const std::string& failure) {
    ++attempted;
    if (failure.empty()) return;
    if (++failed <= 5) {
      std::cerr << "fedbench: op " << i << " failed: " << failure << "\n";
    }
  }
};

// Runs op `i` and its check; returns the op's latency in ms.
double run_op(Workload& w, std::size_t i, Tally& tally) {
  double ms = 0.0;
  std::string failure;
  try {
    const auto t0 = Clock::now();
    w.op(i);
    ms = ms_since(t0);
    failure = w.check(i);
  } catch (const std::exception& e) {
    failure = std::string("threw: ") + e.what();
  }
  tally.record(i, failure);
  return ms;
}

void run_finish(Workload& w, Tally& tally) {
  std::string failure;
  try {
    failure = w.finish();
  } catch (const std::exception& e) {
    failure = std::string("threw: ") + e.what();
  }
  if (!failure.empty()) {
    std::cerr << "fedbench: end-of-run check failed: " << failure << "\n";
    tally.finished_ok = false;
  }
}

// The fastest of `reps` fresh set-ups of `w`, in seconds.
double fastest_setup_s(Workload& w, int reps, const CpuRotation& cpus) {
  double fastest = INFINITY;
  for (int r = 0; r < reps; ++r) {
    cpus.pin(static_cast<std::size_t>(r));
    const auto t0 = Clock::now();
    w.setup();
    fastest = std::min(fastest, ms_since(t0) / 1000.0);
  }
  return fastest;
}

using Metrics = std::map<std::string, double>;

void print_result(const Tally& tally, const Metrics& values,
                  const Metric* list, std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              tally.failed == 0 && tally.finished_ok ? "true" : "false",
              tally.attempted, tally.failed);
  for (std::size_t m = 0; m < count; ++m) {
    const auto it = values.find(list[m].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::fprintf(stderr, "  %-28s %16.6f %s\n", list[m].name, v,
                 list[m].unit);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                m == 0 ? "" : ", ", list[m].name, v, list[m].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run_timed(const Plan& plan, std::uint64_t seed, std::size_t ops,
              std::size_t passes, double seconds) {
  const auto w = make_workload(plan.name, seed, plan.warmup + ops);
  const CpuRotation cpus;
  Tally tally;
  Metrics m;
  // Set-ups are timed like ops, on a second instance: in slots spread over
  // the run, one before the timed list and one after each pass. A slot's
  // figure is its fastest set-up; setup_s is the median over slots.
  const auto fresh = make_workload(plan.name, seed, plan.warmup + ops);
  const int slot_reps = std::max(
      2, plan.setup_reps / static_cast<int>(passes + 1) + 1);
  std::vector<double> setup_s{fastest_setup_s(*fresh, slot_reps, cpus)};
  w->setup();
  for (std::size_t j = 0; j < plan.warmup; ++j) {
    cpus.pin(j);
    (void)run_op(*w, j, tally);
  }
  std::vector<double> latency(ops, INFINITY);
  const auto t0 = Clock::now();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t k = 0; k < ops; ++k) {
      cpus.pin(k + pass);
      latency[k] = std::min(latency[k], run_op(*w, plan.warmup + k, tally));
    }
    w->end_pass();
    setup_s.push_back(fastest_setup_s(*fresh, slot_reps, cpus));
    const double elapsed_ms = ms_since(t0);
    const double pass_ms = elapsed_ms / static_cast<double>(pass + 1);
    if (pass + 1 >= kMinPasses &&
        elapsed_ms + pass_ms > kOverrun * seconds * 1e3) {
      break;
    }
  }
  run_finish(*w, tally);
  m["setup_s"] = quantile(setup_s, 0.5);
  const double busy_ms = std::accumulate(latency.begin(), latency.end(), 0.0);
  m["latency_ms_p50"] = quantile(latency, 0.5);
  m["latency_ms_p90"] = quantile(latency, 0.9);
  m["ops_per_s"] = busy_ms > 0.0 ? 1000.0 * static_cast<double>(ops) / busy_ms
                                 : 0.0;
  m["peak_rss_mb"] = peak_rss_mb();
  print_result(tally, m, kEndToEnd, std::size(kEndToEnd));
  return 0;
}

// Per-layer metrics from the traced rows: per-op medians for times and
// counts, ratios of run totals for rates and shares.
Metrics layer_metrics(const std::vector<Trace::Row>& rows,
                      double untraced_p50_ms) {
  auto column = [&](const std::string& name) {
    std::vector<double> xs;
    for (const auto& row : rows) {
      const auto it = row.find(name);
      xs.push_back(it == row.end() ? 0.0 : it->second);
    }
    return xs;
  };
  auto total = [&](std::initializer_list<const char*> names) {
    double sum = 0.0;
    for (const char* name : names) {
      for (const double x : column(name)) sum += x;
    }
    return sum;
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  Metrics m;
  for (const Metric& metric : kPerLayer) {
    m[metric.name] = quantile(column(metric.name), 0.5);
  }
  std::vector<double> resolve;
  std::vector<double> unattributed;
  for (const auto& row : rows) {
    auto get = [&](const char* name) {
      const auto it = row.find(name);
      return it == row.end() ? 0.0 : it->second;
    };
    resolve.push_back(get("serve.apply_outage_start_ms") +
                      get("serve.apply_outage_end_ms") -
                      get("serve.publish_ms"));
    unattributed.push_back(get("op_ms") - get("layer_ms"));
  }
  const double op = total({"op_ms"});
  const double serve_apply =
      total({"serve.apply_outage_start_ms", "serve.apply_outage_end_ms"});
  m["serve.resolve_ms"] = serve_apply > 0.0 ? quantile(resolve, 0.5) : 0.0;
  m["cli.report_ms"] = quantile(column("op_ms"), 0.5);
  m["cli.unattributed_ms"] = quantile(unattributed, 0.5);
  m["cli.layer_coverage"] = ratio(total({"layer_ms"}), op);
  m["trace.overhead_ms"] = m["cli.report_ms"] - untraced_p50_ms;
  m["model.us_per_coalition"] =
      ratio(1000.0 * total({"model.tabulate_ms"}), total({"model.coalitions"}));
  m["exec.cache_hit_rate"] =
      ratio(total({"exec.cache_hits"}),
            total({"exec.cache_hits", "exec.cache_misses"}));
  m["lp.pivots_per_solve"] = ratio(total({"lp.pivots"}), total({"lp.solves"}));
  m["lp.ms_per_solve"] =
      ratio(total({"core.nucleolus_ms"}), total({"lp.solves"}));
  m["serve.lp_warm_frac"] =
      ratio(total({"serve.lp_warm"}), total({"serve.lp_solves"}));
  m["share.model"] = ratio(
      total({"model.federation_ms", "model.tabulate_ms", "model.weights_ms"}),
      op);
  m["share.core"] = ratio(
      total({"core.properties_ms", "core.shapley_ms",
             "core.banzhaf_ms", "core.core_check_ms", "core.nucleolus_ms"}),
      op);
  m["share.nucleolus"] = ratio(total({"core.nucleolus_ms"}), op);
  m["share.serve_publish"] = ratio(total({"serve.publish_ms"}), op);
  m["share.serve_resolve"] =
      serve_apply > 0.0 ? ratio(serve_apply - total({"serve.publish_ms"}), op)
                        : 0.0;
  m["share.unattributed"] = ratio(op - total({"layer_ms"}), op);
  return m;
}

int run_traced(const Plan& plan, std::uint64_t seed, std::size_t ops) {
  const std::size_t traced = std::min(ops, plan.trace_ops);
  const auto w = make_workload(plan.name, seed, plan.warmup + traced);
  const CpuRotation cpus;
  Tally tally;
  w->setup();
  for (std::size_t j = 0; j < plan.warmup; ++j) {
    cpus.pin(j);
    (void)run_op(*w, j, tally);
  }
  // The same ops twice, each on the same CPU both times: whole first,
  // then layer by layer.
  std::vector<double> untraced;
  for (std::size_t i = plan.warmup; i < plan.warmup + traced; ++i) {
    cpus.pin(i);
    untraced.push_back(run_op(*w, i, tally));
  }
  w->end_pass();
  Trace trace;
  for (std::size_t i = plan.warmup; i < plan.warmup + traced; ++i) {
    cpus.pin(i);
    std::string failure;
    try {
      failure = w->trace_op(i, trace);
    } catch (const std::exception& e) {
      failure = std::string("threw: ") + e.what();
    }
    tally.record(i, failure);
  }
  run_finish(*w, tally);
  Metrics m = layer_metrics(trace.rows(), quantile(untraced, 0.5));
  for (const auto& [name, value] : w->run_counters()) m[name] = value;
  m["failed_frac"] = tally.attempted == 0
                         ? 0.0
                         : static_cast<double>(tally.failed) /
                               static_cast<double>(tally.attempted);
  print_result(tally, m, kPerLayer, std::size(kPerLayer));
  return 0;
}

// Feeds deliberately corrupted outputs to each check and fails unless
// every one is rejected (and the uncorrupted originals accepted).
int check_checker() {
  int bad = 0;
  auto expect = [&bad](bool ok, const char* what) {
    std::cerr << (ok ? "ok:   " : "FAIL: ") << what << "\n";
    if (!ok) ++bad;
  };
  fedshare::exec::set_threads(1);
  Rng rng(stream_seed("check_checker", 1, 0));
  const auto config = fedshare::io::Config::parse_string(
      banded_config(rng, {1, 2, 1, 2}));
  const int n = 4;
  const double tolerance = n * 0.5e-4;
  const auto report = fedshare::cli::run_report_result(config, {});
  const auto table = parse_share_table(report.text, n);
  expect(table.has_value(), "report share table parses");
  if (!table) return 1;
  expect(check_shares(*table, n, tolerance).empty(), "clean report passes");

  ShareTable corrupted = *table;
  corrupted.shares[4][0] += 0.01;  // nucleolus row no longer sums to 1
  expect(!check_shares(corrupted, n, tolerance).empty(),
         "corrupted share vector is caught");
  corrupted = *table;
  corrupted.schemes.erase(corrupted.schemes.begin() + 4);
  corrupted.shares.erase(corrupted.shares.begin() + 4);
  expect(!check_shares(corrupted, n, tolerance).empty(),
         "dropped nucleolus row is caught");

  fedshare::serve::EpochAnswer stale;
  stale.epoch = 3;
  stale.current_epoch = 4;
  expect(!check_answer(stale).empty(), "stale serve answer is caught");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: fedbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--ops <k>]\n"
               "       fedbench --check-checker\n";
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  long ops_override = 0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--check-checker") return check_checker();
    if (a + 1 >= argc) return usage();
    const std::string value = argv[++a];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--ops") {
      ops_override = std::strtol(value.c_str(), nullptr, 10);
    } else {
      return usage();
    }
  }
  const Plan* plan = nullptr;
  for (const Plan& p : kPlans) {
    if (workload == p.name) plan = &p;
  }
  if (plan == nullptr || !(seconds > 0.0)) return usage();
  const std::size_t ops =
      ops_override > 0 ? static_cast<std::size_t>(ops_override) : kOps;
  const std::size_t passes = std::max(
      kMinPasses, static_cast<std::size_t>(std::round(
                      seconds * plan->ops_per_s / static_cast<double>(ops))));
  fedshare::exec::set_threads(1);
  return trace ? run_traced(*plan, seed, ops)
               : run_timed(*plan, seed, ops, passes, seconds);
}

}  // namespace
}  // namespace fedbench

int main(int argc, char** argv) {
  try {
    return fedbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fedbench: " << e.what() << "\n";
    return 1;
  }
}
