// Epoch-versioned federation state machine (the serve layer's core).
//
// A ServiceState is the long-lived form of model::Federation: it ingests
// churn events (serve/event.hpp) through an append-only log, keeps the
// coalition-value lattice warm across events, bounds the grand
// coalition's value by its LP relaxation, and answers share/core/
// incentive queries against a consistent epoch snapshot while further
// events are applied.
//
// The contracts that make it churn-tolerant:
//
//  * Epochs and snapshots. Every applied event bumps the epoch. When the
//    re-solve completes, an immutable Snapshot (effective space, demand,
//    tabulated game, scheme outcomes) is published; queries read the
//    latest published snapshot without blocking appliers. A query's
//    answer is always internally consistent — it never mixes values from
//    two epochs.
//  * Stale-but-bounded answers. apply() runs under a ComputeBudget. When
//    the budget trips mid-resolve the epoch still advances (the event
//    *happened*), but the previous snapshot stays published and every
//    answer is tagged with the epoch it was solved at plus the
//    StopReason — never a hang, never a silently wrong number. repair()
//    finishes the pending work; because all intermediate results live in
//    the value cache, repair is idempotent and resumes where the trip
//    left off.
//  * Incremental re-solve. The coalition lattice is keyed by *slot*
//    masks (a facility keeps its slot for its whole tenure; leavers free
//    their slot for later joiners). An event touching slot s invalidates
//    only the masks containing s (exec::ValueCache::invalidate_if clears
//    their presence bits in the flat 2^kMaxFacilities table); the
//    surviving half of the lattice is reused bit-for-bit, which is sound
//    because a coalition's pooled capacity vector depends only on its
//    own members' configs in slot order.
//  * Nominal-slice restore. An outage-end puts a facility back on its
//    nominal config, so the masks containing its slot get back the
//    values they had before the outage-start. The outage-start moves
//    those cached raw values into a per-slot stash before invalidating
//    them, and the outage-end stores them back: that epoch recomputes
//    no V(S). A stashed value stays valid while the configs of its
//    members and the demand do, so any event on another slot t drops
//    the stashed masks that contain t, a leave clears the leaver's
//    stash, and a demand update clears every stash. Like the answer
//    memo, the stash is not persisted.
//  * Relaxation bound. The grand coalition's bound drops Eq. (2)'s
//    diversity thresholds, so it splits into one fractional knapsack
//    per location with a closed-form optimum
//    (alloc::closed_form_upper_bound): each epoch evaluates it on the
//    effective pool in O(locations), with no LP.
//  * Published-answer memo. Publishing runs game::compare_schemes on
//    the closed V(S) table and the availability and consumption
//    weights with default lp::SimplexOptions (the report's call, so
//    the published nucleolus is the report's), unbudgeted, so those
//    three vectors are its whole input. A per-
//    state serve::AnswerMemo keys every comparison that was not cut
//    short by their bit patterns: a hash finds the entry and a bitwise
//    compare of all three full vectors confirms it, so a hash collision
//    is a miss, never a wrong answer. An epoch that revisits a game
//    (the end of an outage flap, a repeated outage draw) copies the
//    stored rows instead of re-solving the nucleolus
//    (ApplyResult::answer_reused); epoch, names, standalone values,
//    bound and incentives are still filled per epoch. Entries are
//    evicted least-recently-used within one byte budget, a constant in
//    state.cpp sized from 2^kMaxFacilities tables. The memo is not
//    persisted: restore() and replay_log() start with it empty, and
//    determinism makes their answers bitwise the cold ones.
//  * Replay determinism. The event log is the only durable state.
//    Outage masks are sampled from (seed, scenario, roster) at apply
//    time via runtime::OutageModel — a pure function — so replaying the
//    log (or any prefix) reproduces epochs, spaces, games, and answers
//    bit-for-bit. This is the crash-recovery story, exercised by
//    tests/test_serve_chaos.cpp.
//
// Budget scope: the budget bounds the exponential work (one unit per
// distinct V(S) materialisation — the global charging rule). Once the
// tables are complete, the closed-form bound and publishing a snapshot
// (scheme evaluation over the tabulated game) run to completion: a
// deadline bounds the exponential work, not the polynomial floor that
// any answer needs.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "core/game.hpp"
#include "core/sharing.hpp"
#include "exec/value_cache.hpp"
#include "lp/simplex.hpp"
#include "model/demand.hpp"
#include "model/location_space.hpp"
#include "runtime/budget.hpp"
#include "serve/answer_memo.hpp"
#include "serve/event.hpp"

namespace fedshare::serve {

/// Knobs for a ServiceState.
struct ServeOptions {
  /// The engine the nucleolus LPs inside scheme evaluation run on:
  /// always the started dense engine, which lp::SimplexOptions selects
  /// by default. Not settable; kept only because perfbench/ reads it,
  /// until the benchmark next changes.
  static constexpr lp::SolverKind lp_solver = lp::SolverKind::kDense;
  /// Maintain the grand coalition's LP-relaxation bound (an upper bound
  /// on V(N), evaluated in closed form per epoch). Off = greedy V only.
  bool track_bounds = true;
};

/// What one apply()/repair() call did.
struct ApplyResult {
  std::uint64_t epoch = 0;      ///< epoch after the event
  std::string kind;             ///< event keyword, or "repair"
  bool complete = true;         ///< false: snapshot is stale (see stop)
  runtime::StopReason stop = runtime::StopReason::kNone;
  std::size_t invalidated = 0;         ///< cache entries dropped
  std::size_t values_recomputed = 0;   ///< greedy V(S) materialisations
  /// Always 0: the bound needs no LP. Kept only because perfbench/
  /// reads them, until the benchmark next changes.
  std::size_t lp_solves = 0;
  std::size_t lp_incremental = 0;
  std::uint64_t lp_pivots = 0;
  /// The published rows came from the answer memo (a revisited game).
  bool answer_reused = false;
};

/// A consistent share/core/incentive answer for one epoch.
struct EpochAnswer {
  std::uint64_t epoch = 0;          ///< epoch the answer was solved at
  std::uint64_t current_epoch = 0;  ///< service epoch at query time
  /// Stale answers carry the reason the newer epochs are unsolved.
  runtime::StopReason degraded = runtime::StopReason::kNone;
  [[nodiscard]] bool stale() const noexcept {
    return epoch != current_epoch;
  }

  int num_facilities = 0;
  std::vector<std::string> names;       ///< active facilities, slot order
  double grand_value = 0.0;             ///< V(N) of the epoch
  std::optional<double> grand_bound;    ///< LP-relaxation bound on V(N)
  std::vector<double> standalone;       ///< V({i}) per facility
  /// Every sharing scheme (game::compare_schemes): shares, payoffs,
  /// core membership. Empty when the roster is empty.
  std::vector<game::SchemeOutcome> outcomes;
  /// The schemes the comparison left out, and why (e.g. the nucleolus
  /// after a budget trip).
  std::vector<game::SkippedScheme> skipped;
  /// Join surplus per facility: Shapley payoff minus standalone value
  /// (the incentive to federate; >= 0 for superadditive epochs).
  std::vector<double> incentives;
};

/// Aggregate counters since construction.
struct ServiceStats {
  std::uint64_t epoch = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t values_recomputed = 0;
  /// Publishes whose rows came from the answer memo.
  std::uint64_t answers_reused = 0;
  /// Degradation history: epochs whose own apply() tripped its budget
  /// (the service answered stale until something healed them) ...
  std::uint64_t epochs_tripped = 0;
  /// ... and epochs healed later than their own apply — published by a
  /// repair() or by a subsequent apply() that cleared the backlog.
  std::uint64_t epochs_repaired = 0;
  /// repair() calls that completed pending work (not no-ops).
  std::uint64_t repairs = 0;
  exec::CacheStats cache;
};

/// Everything needed to reconstruct a clean ServiceState without
/// replaying its history: the durable image behind serve/checkpoint.hpp.
/// Captured by ServiceState::checkpoint_image() and consumed by
/// restore(); the codec (text format, checksum) lives in
/// serve/checkpoint.{hpp,cpp} so this struct stays format-agnostic.
///
/// Bitwise-recovery contract: the image carries the value-cache entries,
/// and every other published double is a pure function of the roster
/// and the demand, so a restored state answers every later epoch
/// exactly as the uncrashed run does.
struct CheckpointImage {
  std::uint64_t epoch = 0;
  ServeOptions options;  ///< must match the restoring state's options

  struct MemberImage {
    int slot = 0;
    model::FacilityConfig config;  ///< nominal (as joined)
    bool outage = false;
    std::uint64_t outage_seed = 0;
    std::uint64_t outage_scenario = 0;
    std::vector<bool> up;  ///< sampled mask; valid when outage
  };
  std::vector<MemberImage> roster;  ///< sorted by slot
  model::DemandProfile demand;

  /// Raw greedy V(S) memo, keyed by slot mask, ascending (the full
  /// lattice of the active roster — checkpoints are only taken clean).
  /// Images written before the memo held raw values carry closed
  /// values instead; restore() accepts both, because the closure that
  /// publish_snapshot() applies is idempotent.
  std::vector<std::pair<std::uint64_t, double>> cache;

  struct BoundImage {
    std::uint64_t mask = 0;
    double value = 0.0;
  };
  /// The active roster's bound: at most one record (none when the bound
  /// is unavailable). Files written while the service kept a bound per
  /// slot mask carry one record per mask, ascending. restore() validates
  /// their masks and re-derives the bound from the roster and demand.
  std::vector<BoundImage> bounds;

  /// Degradation history survives restart so operator-facing stats do
  /// not silently reset on recovery.
  std::uint64_t epochs_tripped = 0;
  std::uint64_t epochs_repaired = 0;
  std::uint64_t repairs = 0;
};

/// The epoch-versioned state machine. Thread-safe: apply/repair
/// serialise on an internal mutex; query() and snapshot() only hold it
/// long enough to copy a shared_ptr, so readers never wait on a
/// re-solve.
class ServiceState {
 public:
  /// What a published epoch looks like to readers (immutable).
  struct Snapshot {
    std::uint64_t epoch = 0;
    std::vector<std::string> names;  ///< active facilities, slot order
    std::vector<int> slots;          ///< slot per facility (ascending)
    /// Effective space (outages realised); empty roster = empty space.
    model::LocationSpace space = model::LocationSpace::disjoint({});
    model::DemandProfile demand;
    /// Tabulated game over compact facility indices (nullopt when the
    /// roster is empty).
    std::optional<game::TabularGame> game;
    EpochAnswer answer;  ///< solved at this epoch (epoch tag set)
  };

  explicit ServiceState(ServeOptions options = {});

  ServiceState(const ServiceState&) = delete;
  ServiceState& operator=(const ServiceState&) = delete;

  /// Validates `event` against the roster (throws ServeError on e.g. a
  /// duplicate join or an unknown facility — the epoch does NOT advance
  /// for invalid events), appends it to the log, bumps the epoch,
  /// invalidates the affected lattice slice, and re-solves under
  /// `budget`. On a budget trip the result reports complete=false and
  /// the previous snapshot stays published (stale-but-bounded).
  ApplyResult apply(const Event& event,
                    const runtime::ComputeBudget& budget = {});

  /// Finishes the re-solve of the current epoch after a tripped apply
  /// (idempotent; a no-op returning complete=true when nothing is
  /// pending). All partial work is reused through the value cache.
  ApplyResult repair(const runtime::ComputeBudget& budget = {});

  /// repair() that yields to appliers: the call runs under `budget` plus
  /// a service-managed cancellation token which apply() fires on entry,
  /// so an in-flight background repair aborts (StopReason::kCancelled)
  /// within one budget amortisation window instead of holding the state
  /// lock against event ingestion. Partial work is kept (value cache),
  /// so the retried repair resumes where the yield left off. This is
  /// what serve::MaintenanceThread calls.
  ApplyResult repair_yielding(const runtime::ComputeBudget& budget = {});

  /// Cancels the in-flight repair_yielding() call, if any (cheap, lock-
  /// free beyond a small mutex; never blocks on the repair itself).
  /// apply() calls this automatically.
  void interrupt_repair();

  /// The latest published answer, tagged with the current epoch and —
  /// when stale — the StopReason that interrupted the re-solve. Never
  /// blocks on an in-flight apply beyond the pointer copy.
  [[nodiscard]] EpochAnswer query() const;

  /// The latest published snapshot (never null; epoch 0 is the empty
  /// federation).
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;

  [[nodiscard]] std::uint64_t epoch() const;
  /// True when the published snapshot is older than the current epoch.
  [[nodiscard]] bool dirty() const;
  /// The append-only event log (every successfully applied event).
  [[nodiscard]] std::vector<Event> log() const;
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }

  /// Replays `prefix` events of `log` (everything when prefix is out of
  /// range) with an unlimited budget. Only valid on a fresh state
  /// (epoch 0, empty log); throws ServeError otherwise or when a log
  /// event is invalid. Deterministic: two states replaying the same
  /// prefix publish bit-identical snapshots.
  void replay_log(const std::vector<Event>& log,
                  std::size_t prefix = static_cast<std::size_t>(-1));

  /// Captures the durable image of the current state. Only valid when
  /// the state is clean (snapshot current) — a dirty state's pending
  /// work is not representable and checkpointing it would freeze a
  /// stale answer; throws ServeError in that case (callers defer the
  /// checkpoint until the epoch heals).
  [[nodiscard]] CheckpointImage checkpoint_image() const;

  /// Reconstructs the state from `image` (epoch, roster, demand, value
  /// cache) and publishes the checkpoint epoch's snapshot. Only valid on
  /// a fresh state; throws ServeError otherwise or when image.options
  /// disagree with this state's options (bounds are not portable across
  /// track_bounds). The roster has
  /// kMaxFacilities (core/limits.hpp) slots. After restore, applying the
  /// logged suffix reproduces the uncrashed run bit-for-bit; note
  /// log() returns only the post-restore suffix (full history lives in
  /// the durable log, see serve/log.hpp).
  void restore(const CheckpointImage& image);

 private:
  struct Member {
    int slot = 0;
    model::FacilityConfig config;   ///< nominal (as joined)
    bool outage = false;
    std::uint64_t outage_seed = 0;
    std::uint64_t outage_scenario = 0;
    std::vector<bool> up;  ///< per nominal location; valid when outage
  };

  // --- event application (mu_ held) ---------------------------------
  int validate_and_stage(const Event& event);  ///< returns touched slot
  void rebuild_space();
  bool tabulate_values(const runtime::ComputeBudget& budget,
                       ApplyResult& result);
  bool resolve_bound(const runtime::ComputeBudget& budget);
  /// Moves, prunes or restores the stashed nominal slices for an event
  /// on `slot` (-1: a demand update), around its invalidation.
  void invalidate_for(const Event& event, int slot, ApplyResult& result);
  /// Publishes the current epoch; true when its rows came from memo_.
  bool publish_snapshot();
  ApplyResult finish(ApplyResult result,
                     const runtime::ComputeBudget& budget);

  // --- helpers (mu_ held) -------------------------------------------
  [[nodiscard]] std::uint64_t active_mask() const;
  [[nodiscard]] int member_index(const std::string& name) const;
  [[nodiscard]] game::Coalition compact_coalition(std::uint64_t slot_mask)
      const;

  ServeOptions options_;
  mutable std::mutex mu_;

  std::vector<Event> log_;
  std::uint64_t epoch_ = 0;
  std::vector<Member> roster_;  ///< sorted by slot
  model::DemandProfile demand_;
  model::LocationSpace space_;  ///< effective space of the roster

  /// Raw greedy V(S) memo keyed by slot mask. Raw values keep masks
  /// independent, so re-tabulation needs no level order;
  /// publish_snapshot() applies the monotone closure.
  exec::ValueCache cache_;  ///< 2^kMaxFacilities keys

  /// Per slot, the raw values its masks had before its current outage
  /// (see the contract); empty for a slot with no outage.
  std::vector<std::vector<std::pair<std::uint64_t, double>>> stash_;

  /// The active roster's LP-relaxation bound (nullopt: not computed for
  /// this epoch yet, or unavailable), and the grand pool it is evaluated
  /// on, kept so its buffer outlives the epoch.
  std::optional<double> bound_;
  alloc::LocationPool bound_pool_;

  /// Published comparisons by their exact inputs (see the contract).
  AnswerMemo memo_;

  std::shared_ptr<const Snapshot> snapshot_;
  bool dirty_ = false;
  runtime::StopReason last_stop_ = runtime::StopReason::kNone;

  /// Token observed by the budget of the in-flight repair_yielding()
  /// call (null between calls). Guarded by yield_mu_, NOT mu_ — apply()
  /// must be able to fire it while the repair holds mu_.
  mutable std::mutex yield_mu_;
  runtime::CancellationToken yield_token_;
  bool yield_active_ = false;

  // Aggregate counters (mu_ held; see stats()).
  std::uint64_t events_applied_ = 0;
  std::uint64_t values_recomputed_ = 0;
  std::uint64_t answers_reused_ = 0;
  std::uint64_t epochs_tripped_ = 0;
  std::uint64_t epochs_repaired_ = 0;
  std::uint64_t repairs_ = 0;
};

}  // namespace fedshare::serve
