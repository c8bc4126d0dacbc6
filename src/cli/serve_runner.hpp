// The fedshare CLI's daemon mode (--serve): feed a scripted event file
// through serve::ServiceState and render each epoch's outcome plus the
// final federation answer. Kept as a library so tests (and the golden
// harness) can drive it without spawning processes.
//
// The event file format is serve/event.hpp's log format — one event per
// line, '#' comments. Without a deadline the run is fully deterministic
// (replaying the same file prints the same bytes), which is what the
// golden snapshot of configs/serve_demo.events pins down.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "runtime/budget.hpp"

namespace fedshare::cli {

/// Knobs for run_serve (the --serve flag family).
struct ServeRunOptions {
  /// Per-event compute budget. When an event's re-solve trips, the
  /// service keeps the previous epoch's answer published
  /// (stale-but-bounded) and the run is reported degraded. Unset =
  /// unlimited, fully deterministic output.
  std::optional<double> deadline_ms;
  /// Maintain the grand coalition's LP-relaxation bound (one warm
  /// dual-simplex re-solve per epoch).
  bool track_bounds = true;
  /// Digits in the rendered report.
  int precision = 4;

  /// Durable-log directory (--log-dir). When set, the run first
  /// recovers from the directory (newest valid checkpoint + log-suffix
  /// replay, with torn-tail/corrupt-checkpoint fallbacks), then skips
  /// the already-durable prefix of the script and appends only the new
  /// suffix — so crash + rerun of the same command resumes exactly
  /// where the crash left off.
  std::optional<std::string> log_dir;
  /// Checkpoint every N durable epochs (--checkpoint-every; 0 = never;
  /// needs log_dir). Deferred while the state is budget-dirty.
  std::uint64_t checkpoint_every = 0;
  /// Keep the newest K checkpoints (--retain-checkpoints).
  int retain_checkpoints = 2;
  /// Run a serve::MaintenanceThread for the duration of the run
  /// (--maintenance): budget-tripped epochs heal in the background with
  /// backoff + budget escalation instead of waiting for a later event.
  bool maintenance = false;
  /// Crash injection (--crash-at-epoch, needs log_dir): after epoch k
  /// is applied and durable, the process raises SIGKILL — no flush, no
  /// destructors — so the chaos harness can exercise real recovery.
  std::optional<std::uint64_t> crash_at_epoch;
};

/// Outcome of a serve run.
struct ServeRunResult {
  std::string text;  ///< the rendered report (always complete)
  /// True when the final published answer is stale (a budget trip left
  /// newer epochs unsolved); maps to CLI exit code 3.
  bool degraded = false;
  /// Why, when degraded.
  runtime::StopReason stop = runtime::StopReason::kNone;
  /// Schemes the final answer left out (each with a note under the
  /// scheme table); maps to CLI exit code 3.
  std::vector<std::string> skipped;
  /// Set when an event was invalid against the roster (duplicate join,
  /// unknown facility, ...): the run stops at that event. Maps to CLI
  /// exit code 1.
  std::optional<std::string> error;

  /// True when recovery dropped a torn log tail or skipped a corrupt
  /// checkpoint (the answer is exact for the surviving history); maps
  /// to CLI exit code 4 with the notes on stderr.
  bool recovery_fallback = false;
  std::vector<std::string> recovery_notes;
  std::uint64_t recovered_checkpoint_epoch = 0;  ///< 0 = full replay
  std::uint64_t recovered_events = 0;   ///< durable events at startup
  std::uint64_t replayed_events = 0;    ///< suffix replayed at startup
};

/// Parses the event log on `events` and applies it event by event.
/// Throws serve::ServeError only for *malformed* lines (parse errors);
/// semantically invalid events are reported via ServeRunResult::error.
[[nodiscard]] ServeRunResult run_serve(std::istream& events,
                                       const ServeRunOptions& options = {});

}  // namespace fedshare::cli
