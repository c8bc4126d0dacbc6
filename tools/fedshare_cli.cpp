// fedshare_cli — compute federation sharing reports from an INI config,
// or run a scripted churn-event file through the serve layer.
//
// Usage: fedshare_cli <federation.ini>
//        fedshare_cli --serve <events-file>
//        fedshare_cli --help
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cli/runner.hpp"
#include "cli/serve_runner.hpp"
#include "exec/pool.hpp"
#include "serve/event.hpp"
#include "serve/log.hpp"
#include "verify/certificates.hpp"

namespace {

constexpr const char* kUsage =
    R"(usage: fedshare_cli <federation.ini> [--dump-game <out-file>]
                    [--deadline-ms <ms>] [--outage-scenarios <k>]
                    [--outage-seed <seed>] [--threads <n>]
                    [--verify <off|cheap|full>]
                    [--symmetry <off|auto|exact>]
                    [--structure <off|optimal|hedonic>]
                    [--cache-stats]
       fedshare_cli --serve <events-file> [--deadline-ms <ms>]
                    [--threads <n>] [--no-bounds] [--log-dir <dir>]
                    [--checkpoint-every <n>] [--retain-checkpoints <k>]
                    [--maintenance] [--crash-at-epoch <k>]
       fedshare_cli --compact <log-dir> [--retain-checkpoints <k>]
                    [--no-bounds]

Computes coalition values, game properties and sharing-scheme shares
(Shapley, proportional, consumption, equal, nucleolus, Banzhaf) for the
federation described by the config file. With --dump-game, additionally
writes the characteristic function in the fedshare-game v1 format.

Exit codes: 0 success, 1 input/config error, 2 usage error, 3 report or
serve run degraded under the compute budget, or a scheme left out of the
report or the serve answer (partial but bounded output — a one-line
note on stderr says which sections degraded or were skipped),
4 recovery used a fallback (a torn log tail was dropped or a corrupt
checkpoint skipped; the answer is exact for the surviving history and
each fallback is noted on stderr).

Daemon mode (--serve): applies a scripted churn-event file (join /
leave / outage-start / outage-end / demand, one per line; see docs) to
the epoch-versioned federation service, printing each epoch's
incremental re-solve stats and the final share/core/incentive answer.
With --deadline-ms each event gets that budget; a tripped event leaves
the previous epoch's answer published (stale-but-bounded) and the run
exits 3. --no-bounds skips the grand coalition's LP-relaxation bound
on V(N).

Durability (--serve with --log-dir): every applied event is appended to
an fsync'd log segment in <dir>; startup recovers from the newest valid
checkpoint plus a log-suffix replay (bitwise-identical to a full
replay) and resumes the script past the durable prefix — so crashing
and rerunning the same command continues where the crash hit.
  --log-dir <dir>            durable event-log directory
  --checkpoint-every <n>     checkpoint every n durable epochs (0=off;
                             deferred while an epoch is budget-dirty)
  --retain-checkpoints <k>   keep the newest k checkpoints (default 2)
  --maintenance              background-repair thread: budget-tripped
                             epochs heal via retries with exponential
                             backoff and budget escalation, without
                             blocking event ingestion
  --crash-at-epoch <k>       crash injection for the chaos harness:
                             SIGKILL immediately after epoch k is
                             durable (no flush, no destructors)

Compaction (--compact <dir>): rewrites the log directory to (checkpoint
at head epoch, fresh empty segment) so recovery replays at most the
suffix since the last checkpoint; old segments are removed and
checkpoints pruned to the retention count.

Resilience options:
  --deadline-ms <ms>       bound the exponential solvers; past the
                           deadline the report degrades gracefully
                           (Monte-Carlo Shapley with standard errors)
                           instead of running long
  --outage-scenarios <k>   sample k outage scenarios from facility
                           availabilities and report share/payoff
                           distributions
  --outage-seed <seed>     seed for the outage sampler (default 1)
  --threads <n>            worker threads for tabulation, Monte-Carlo
                           Shapley and outage sweeps (default 1; the
                           FEDSHARE_THREADS env variable sets the
                           default). Results are identical at any
                           thread count; with 1 the output is
                           byte-identical to earlier releases
  --verify <level>         verification level: 'off' (default, no
                           checks, unchanged output), 'cheap' (audit
                           the game and every sharing outcome; appends
                           a Verification section) or 'full' (cheap
                           plus a dual/Farkas certificate check on
                           every LP solve, with iterative refinement
                           and a cross-engine cascade repairing any
                           solve whose certificate fails)
  --symmetry <mode>        symmetry quotient: 'off' (default, one
                           allocation per coalition, unchanged output),
                           'exact' (group facilities with identical
                           configs into types and evaluate one
                           allocation per orbit — prod (m_t + 1)
                           instead of 2^n — trusting the configs) or
                           'auto' (verify the grouping on sampled
                           coalitions first; safe on any config). Adds
                           a Symmetry section listing types and the
                           orbit count
  --structure <mode>       coalition-structure analysis: 'off'
                           (default, unchanged output), 'optimal'
                           (exact welfare-maximising partition via the
                           subset-lattice DP) or 'hedonic' (merge/
                           split dynamics fixed point). Appends a
                           Coalition structure section with per-block
                           values, Shapley payoffs within blocks,
                           welfare vs the grand coalition, and
                           stability verdicts
  --cache-stats            append a Value cache section with the V(S)
                           memo's counters (entries, hits, misses,
                           invalidations). Off by default; without it the output is
                           unchanged

Config example:

  [facility]
  name = PLC
  locations = 300
  units = 4

  [facility]
  name = PLE
  locations = 180
  units = 3

  [demand]
  count = 10
  min_locations = 400
)";

bool parse_value(const char* flag, const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    std::cerr << "fedshare_cli: " << flag << " needs a number, got '" << text
              << "'\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string dump_path;
  std::string serve_path;
  std::string compact_dir;
  bool serve_bounds = true;
  std::string log_dir;
  double checkpoint_every = 0.0;
  double retain_checkpoints = 2.0;
  bool serve_maintenance = false;
  std::optional<std::uint64_t> crash_at_epoch;
  fedshare::cli::ReportOptions report_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--serve") {
      if (i + 1 >= argc) {
        std::cerr << "fedshare_cli: --serve needs an events file\n";
        return 2;
      }
      serve_path = argv[++i];
      continue;
    }
    if (arg == "--compact") {
      if (i + 1 >= argc) {
        std::cerr << "fedshare_cli: --compact needs a log directory\n";
        return 2;
      }
      compact_dir = argv[++i];
      continue;
    }
    if (arg == "--log-dir") {
      if (i + 1 >= argc) {
        std::cerr << "fedshare_cli: --log-dir needs a directory\n";
        return 2;
      }
      log_dir = argv[++i];
      continue;
    }
    if (arg == "--checkpoint-every" || arg == "--retain-checkpoints" ||
        arg == "--crash-at-epoch") {
      if (i + 1 >= argc) {
        std::cerr << "fedshare_cli: " << arg << " needs a value\n";
        return 2;
      }
      double value = 0.0;
      if (!parse_value(arg.c_str(), argv[++i], value)) return 2;
      if (value < 0.0 || value != static_cast<std::uint64_t>(value)) {
        std::cerr << "fedshare_cli: " << arg
                  << " must be a non-negative integer\n";
        return 2;
      }
      if (arg == "--checkpoint-every") {
        checkpoint_every = value;
      } else if (arg == "--retain-checkpoints") {
        if (value < 1.0) {
          std::cerr << "fedshare_cli: --retain-checkpoints must be >= 1\n";
          return 2;
        }
        retain_checkpoints = value;
      } else {
        crash_at_epoch = static_cast<std::uint64_t>(value);
      }
      continue;
    }
    if (arg == "--maintenance") {
      serve_maintenance = true;
      continue;
    }
    if (arg == "--no-bounds") {
      serve_bounds = false;
      continue;
    }
    if (arg == "--cache-stats") {
      report_options.cache_stats = true;
      continue;
    }
    if (arg == "--dump-game") {
      if (i + 1 >= argc) {
        std::cerr << "fedshare_cli: --dump-game needs a file argument\n";
        return 2;
      }
      dump_path = argv[++i];
      continue;
    }
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << "fedshare_cli: --threads needs a value\n";
        return 2;
      }
      double value = 0.0;
      if (!parse_value("--threads", argv[++i], value)) return 2;
      if (value < 1.0 || value != static_cast<int>(value)) {
        std::cerr << "fedshare_cli: --threads must be a positive integer\n";
        return 2;
      }
      fedshare::exec::set_threads(static_cast<int>(value));
      continue;
    }
    if (arg == "--verify" || arg.rfind("--verify=", 0) == 0) {
      std::string value;
      if (arg == "--verify") {
        if (i + 1 >= argc) {
          std::cerr << "fedshare_cli: --verify needs a value\n";
          return 2;
        }
        value = argv[++i];
      } else {
        value = arg.substr(std::string("--verify=").size());
      }
      if (!fedshare::verify::verify_level_from_string(
              value, report_options.verify)) {
        std::cerr << "fedshare_cli: --verify must be 'off', 'cheap' or "
                     "'full', got '"
                  << value << "'\n";
        return 2;
      }
      continue;
    }
    if (arg == "--symmetry" || arg.rfind("--symmetry=", 0) == 0) {
      std::string value;
      if (arg == "--symmetry") {
        if (i + 1 >= argc) {
          std::cerr << "fedshare_cli: --symmetry needs a value\n";
          return 2;
        }
        value = argv[++i];
      } else {
        value = arg.substr(std::string("--symmetry=").size());
      }
      const auto mode = fedshare::game::symmetry_mode_from_string(value);
      if (!mode) {
        std::cerr << "fedshare_cli: --symmetry must be 'off', 'auto' or "
                     "'exact', got '"
                  << value << "'\n";
        return 2;
      }
      report_options.symmetry = *mode;
      continue;
    }
    if (arg == "--structure" || arg.rfind("--structure=", 0) == 0) {
      std::string value;
      if (arg == "--structure") {
        if (i + 1 >= argc) {
          std::cerr << "fedshare_cli: --structure needs a value\n";
          return 2;
        }
        value = argv[++i];
      } else {
        value = arg.substr(std::string("--structure=").size());
      }
      const auto mode = fedshare::structure::structure_mode_from_string(value);
      if (!mode) {
        std::cerr << "fedshare_cli: --structure must be 'off', 'optimal' or "
                     "'hedonic', got '"
                  << value << "'\n";
        return 2;
      }
      report_options.structure = *mode;
      continue;
    }
    if (arg == "--deadline-ms" || arg == "--outage-scenarios" ||
        arg == "--outage-seed") {
      if (i + 1 >= argc) {
        std::cerr << "fedshare_cli: " << arg << " needs a value\n";
        return 2;
      }
      double value = 0.0;
      if (!parse_value(arg.c_str(), argv[++i], value)) return 2;
      if (arg == "--deadline-ms") {
        if (value < 0.0) {
          std::cerr << "fedshare_cli: --deadline-ms must be >= 0\n";
          return 2;
        }
        report_options.deadline_ms = value;
      } else if (arg == "--outage-scenarios") {
        if (value < 1.0 || value != static_cast<int>(value)) {
          std::cerr
              << "fedshare_cli: --outage-scenarios must be a positive "
                 "integer\n";
          return 2;
        }
        report_options.outage_scenarios = static_cast<int>(value);
      } else {
        if (value < 0.0 || value != static_cast<std::uint64_t>(value)) {
          std::cerr << "fedshare_cli: --outage-seed must be a non-negative "
                       "integer\n";
          return 2;
        }
        report_options.outage_seed = static_cast<std::uint64_t>(value);
      }
      continue;
    }
    if (!config_path.empty()) {
      std::cerr << kUsage;
      return 2;
    }
    config_path = arg;
  }
  if (!compact_dir.empty()) {
    if (!config_path.empty() || !serve_path.empty()) {
      std::cerr << "fedshare_cli: --compact takes only a log directory\n";
      return 2;
    }
    fedshare::serve::ServeOptions serve_options;
    serve_options.track_bounds = serve_bounds;
    fedshare::serve::DurableLogOptions log_options;
    log_options.checkpoint_every =
        static_cast<std::uint64_t>(checkpoint_every);
    log_options.retain_checkpoints = static_cast<int>(retain_checkpoints);
    try {
      const auto report = fedshare::serve::compact_log_dir(
          compact_dir, serve_options, log_options);
      std::cout << "compacted " << compact_dir << ": " << report.total_events
                << " events -> checkpoint epoch " << report.total_events
                << "\n";
      for (const auto& note : report.notes) {
        std::cerr << "fedshare_cli: recovery note: " << note << "\n";
      }
      return report.used_fallback ? 4 : 0;
    } catch (const fedshare::serve::ServeError& e) {
      std::cerr << "fedshare_cli: " << compact_dir << ": " << e.what()
                << "\n";
      return 1;
    }
  }
  if (!serve_path.empty()) {
    if (!config_path.empty()) {
      std::cerr << "fedshare_cli: --serve takes an events file, not a "
                   "config\n";
      return 2;
    }
    if ((checkpoint_every > 0.0 || crash_at_epoch.has_value()) &&
        log_dir.empty()) {
      std::cerr << "fedshare_cli: --checkpoint-every/--crash-at-epoch "
                   "need --log-dir\n";
      return 2;
    }
    std::ifstream in(serve_path);
    if (!in) {
      std::cerr << "fedshare_cli: cannot open '" << serve_path << "'\n";
      return 1;
    }
    fedshare::cli::ServeRunOptions serve_options;
    serve_options.deadline_ms = report_options.deadline_ms;
    serve_options.track_bounds = serve_bounds;
    if (!log_dir.empty()) serve_options.log_dir = log_dir;
    serve_options.checkpoint_every =
        static_cast<std::uint64_t>(checkpoint_every);
    serve_options.retain_checkpoints = static_cast<int>(retain_checkpoints);
    serve_options.maintenance = serve_maintenance;
    serve_options.crash_at_epoch = crash_at_epoch;
    try {
      const auto result = fedshare::cli::run_serve(in, serve_options);
      std::cout << result.text;
      if (result.error.has_value()) {
        std::cerr << "fedshare_cli: " << serve_path << ": "
                  << *result.error << "\n";
        return 1;
      }
      if (result.degraded || !result.skipped.empty()) {
        std::cerr << "fedshare_cli: serve run degraded: ";
        if (result.degraded) {
          std::cerr << "final answer is stale ("
                    << fedshare::runtime::to_string(result.stop) << ")";
        }
        const char* separator = result.degraded ? "; skipped " : "skipped ";
        for (const auto& scheme : result.skipped) {
          std::cerr << separator << scheme;
          separator = ", ";
        }
        std::cerr << "\n";
        return 3;
      }
      if (result.recovery_fallback) {
        for (const auto& note : result.recovery_notes) {
          std::cerr << "fedshare_cli: recovery note: " << note << "\n";
        }
        std::cerr << "fedshare_cli: recovery used a fallback (answer is "
                     "exact for the surviving history)\n";
        return 4;
      }
    } catch (const fedshare::serve::ServeError& e) {
      std::cerr << "fedshare_cli: " << serve_path << ": " << e.what()
                << "\n";
      return 1;
    } catch (const std::exception& e) {
      std::cerr << "fedshare_cli: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }
  if (config_path.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  std::ifstream in(config_path);
  if (!in) {
    std::cerr << "fedshare_cli: cannot open '" << config_path << "'\n";
    return 1;
  }
  bool degraded = false;
  fedshare::runtime::StopReason stop = fedshare::runtime::StopReason::kNone;
  std::string degraded_sections;
  try {
    const auto config = fedshare::io::Config::parse(in);
    const auto result =
        fedshare::cli::run_report_result(config, report_options);
    std::cout << result.text;
    degraded = result.degraded();
    stop = result.stop;
    for (const auto& section : result.degraded_sections) {
      if (!degraded_sections.empty()) degraded_sections += ", ";
      degraded_sections += section;
    }
    if (!dump_path.empty()) {
      std::ofstream dump(dump_path);
      if (!dump) {
        std::cerr << "fedshare_cli: cannot write '" << dump_path << "'\n";
        return 1;
      }
      dump << fedshare::cli::dump_game_text(config);
      std::cout << "\n(game written to " << dump_path << ")\n";
    }
  } catch (const fedshare::io::ConfigError& e) {
    std::cerr << "fedshare_cli: " << config_path << ": " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "fedshare_cli: " << e.what() << "\n";
    return 1;
  }
  if (degraded) {
    std::cerr << "fedshare_cli: report degraded";
    if (stop != fedshare::runtime::StopReason::kNone) {
      std::cerr << " under the budget (" << fedshare::runtime::to_string(stop)
                << ")";
    }
    std::cerr << ": " << degraded_sections << "\n";
    return 3;
  }
  return 0;
}
