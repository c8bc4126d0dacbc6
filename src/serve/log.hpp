// Durable event log with checkpoints: the serve layer's crash-safe
// persistence.
//
// A log directory holds two kinds of files:
//
//   events-<base>.log        log segments; line k (1-based, comments and
//                            blanks excluded) is the event of epoch
//                            base+k. Segments are contiguous: each
//                            segment's base equals the previous base
//                            plus its event count. A fresh log starts at
//                            events-000000000000.log; compaction starts
//                            a new segment at the head epoch so the log
//                            never needs in-band offsets.
//   checkpoint-<epoch>.ckpt  serve/checkpoint.hpp images, written
//                            atomically; the newest K are retained.
//
// Recovery contract (DurableLog::recover): pick the newest checkpoint
// that decodes, checksums, and restores cleanly, then replay the log
// suffix after its epoch — bitwise-identical to a full replay from
// epoch 0 (tests/test_serve_chaos.cpp proves this under a kill-point
// matrix). Fallback chain, never a wrong answer:
//
//   torn final log line        -> dropped unparsed, segment truncated
//                                 back to the good prefix
//   corrupt/partial checkpoint -> skipped with a note, next-older tried
//   no usable checkpoint       -> full replay from epoch 0 (possible
//                                 whenever segment history reaches back
//                                 to base 0; otherwise recovery fails
//                                 loudly rather than inventing history)
//
// Every fallback is reported in RecoveryReport (the CLI surfaces it on
// stderr and exits with a distinct code) so silent data loss is
// impossible to miss.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/state.hpp"

namespace fedshare::serve {

/// Knobs for a DurableLog.
struct DurableLogOptions {
  /// Take a checkpoint every N epochs (0 = never). A checkpoint due on
  /// a budget-tripped (dirty) epoch is deferred until the state heals.
  std::uint64_t checkpoint_every = 0;
  /// Keep the newest K checkpoints; older ones are pruned after each
  /// successful checkpoint. At least 1.
  int retain_checkpoints = 2;
  /// fsync every appended event (the durable default). Off trades the
  /// last few events for speed — recovery still never misparses.
  bool fsync_appends = true;
};

/// What recovery did (one recover() call).
struct RecoveryReport {
  std::uint64_t checkpoint_epoch = 0;  ///< 0 = no checkpoint used
  std::uint64_t replayed_events = 0;   ///< suffix replayed after restore
  std::uint64_t total_events = 0;      ///< durable events (tail dropped)
  /// True when recovery had to drop a torn tail or skip a corrupt
  /// checkpoint — the answer is still exact for the surviving history,
  /// but the operator should know (CLI exit code 4).
  bool used_fallback = false;
  std::vector<std::string> notes;  ///< one line per fallback decision
};

/// Append/checkpoint/recover driver over one log directory. Not
/// thread-safe (the CLI and tests drive it from one thread); the
/// ServiceState it feeds remains fully thread-safe.
class DurableLog {
 public:
  /// Opens (creating the directory and the first segment if needed) and
  /// scans `dir`. Throws ServeError on unusable layouts (non-contiguous
  /// segments, unreadable directory).
  explicit DurableLog(std::string dir, DurableLogOptions options = {});

  /// Recovers `state` (must be fresh) from the directory per the
  /// fallback chain above, truncating a torn segment tail so later
  /// appends start on a clean line. Throws ServeError only when the
  /// directory cannot support *any* faithful recovery.
  RecoveryReport recover(ServiceState& state);

  /// Makes `event` durable (append + optional fsync) after the caller
  /// applied it to `state`; takes the periodic checkpoint when due and
  /// the state is clean (deferred while dirty). Throws ServeError on
  /// I/O failure.
  void append(const Event& event, ServiceState& state);

  /// Takes a checkpoint of `state` now if it is clean (also clears a
  /// deferred due-checkpoint). Returns false (and stays due) while the
  /// state is dirty or on I/O failure.
  bool checkpoint_now(ServiceState& state);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// Durable events (== the epoch the log can reproduce).
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  void scan();
  void prune_checkpoints();
  [[nodiscard]] std::string segment_path(std::uint64_t base) const;
  [[nodiscard]] std::string checkpoint_path(std::uint64_t epoch) const;

  std::string dir_;
  DurableLogOptions options_;
  std::vector<std::uint64_t> segment_bases_;     ///< ascending
  std::vector<std::uint64_t> checkpoint_epochs_; ///< ascending
  std::uint64_t events_ = 0;
  bool checkpoint_due_ = false;
};

/// Rewrites `dir` to (checkpoint at head epoch, fresh empty segment):
/// recovers a scratch ServiceState (using `serve_options`), writes a
/// checkpoint of the head, starts a new segment there, then removes the
/// replaced segments and prunes checkpoints per retention. Crash-safe at
/// every step — an interrupted compaction leaves a recoverable
/// directory. Returns the recovery report of the scratch replay (whose
/// fallbacks propagate to the caller's exit code). Throws ServeError
/// when the directory cannot be recovered or rewritten.
RecoveryReport compact_log_dir(const std::string& dir,
                               const ServeOptions& serve_options,
                               const DurableLogOptions& options);

}  // namespace fedshare::serve
