// Cooperative compute budgets for the solver hot loops.
//
// A ComputeBudget bundles a wall-clock deadline, a work-unit (node /
// iteration / evaluation) cap, and a cancellation token. Solvers charge
// the budget from their innermost loops and bail out with a structured
// partial result when it trips, so no engine ever hangs past its
// deadline by more than one amortisation window. Header-only so the
// low-level libraries (lp, alloc, core) can consume it without a link
// dependency; the richer resilience machinery lives in
// runtime/outage.hpp and the scheme comparison's cascade in
// core/sharing.hpp.
//
// A budget is intended for one solver invocation on one thread; the
// cancellation token alone may be shared across threads (e.g. a control
// thread cancelling a worker). Parallel regions (src/exec) never share
// one budget across workers: each chunk runs against a fork() of the
// parent budget (same absolute deadline, same tokens, the parent's
// remaining node headroom) and the driver reconciles the children's
// charges into the parent at the join, so the parent's accounting and
// stop reason match what a serial run would have recorded.
//
// Charging rule (what one unit means): a budget unit is charged exactly
// once per *distinct* V(S) materialisation — i.e. when a characteristic-
// function value is actually computed (an allocation LP solved, a
// simplex pivot, a Monte-Carlo evaluation along a permutation). Re-reads of already-materialised values are free: a
// TabularGame lookup, an exec::ValueCache hit (a miss charges one unit
// before computing), or a re-tabulation of an already tabular game
// charge nothing. This keeps deadlines and node
// caps proportional to real work, and makes repeated scheme evaluations
// over one federation instance cost one tabulation, not many.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

namespace fedshare::runtime {

/// Why a budget stopped charging.
enum class StopReason { kNone, kDeadline, kNodeCap, kCancelled };

/// Human-readable stop-reason name (for logs and report notes).
[[nodiscard]] inline const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kNodeCap: return "node-cap";
    case StopReason::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Shared cancellation flag. A default-constructed token is inert (never
/// cancelled); create() makes a live one. Copies share the flag, so any
/// holder — including another thread — can cancel every budget observing
/// the token.
class CancellationToken {
 public:
  CancellationToken() = default;

  [[nodiscard]] static CancellationToken create() {
    CancellationToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  void cancel() const noexcept {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Deadline + work cap + cancellation, checked cooperatively.
///
/// Usage in a hot loop:
///
///   while (...) {
///     if (!budget.charge()) return partial_result();  // budget tripped
///     ... one node / iteration / evaluation ...
///   }
///
/// charge() is cheap: the clock is only consulted every
/// kTimeCheckInterval charges (and on exhausted()), so per-unit overhead
/// is a counter increment plus an occasional atomic load. Once tripped,
/// a budget stays tripped.
class ComputeBudget {
 public:
  /// The one clock every deadline is measured on. Pinned to a monotonic
  /// clock so a wall-clock jump (NTP step, DST, suspend/resume with a
  /// drifted RTC) can neither fire a deadline early nor push it out;
  /// the static_assert turns any future drift back to a wall clock into
  /// a compile error instead of a latent production hang.
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "ComputeBudget deadlines must use a monotonic clock");

  /// No limits: charge() always succeeds. This is the default, so APIs
  /// can take `const ComputeBudget&` with a `{}` default argument.
  ComputeBudget() = default;

  [[nodiscard]] static ComputeBudget unlimited() { return ComputeBudget(); }

  /// Budget that trips `duration` from now.
  template <class Rep, class Period>
  [[nodiscard]] static ComputeBudget with_deadline(
      std::chrono::duration<Rep, Period> duration) {
    ComputeBudget b;
    b.has_deadline_ = true;
    b.deadline_ = Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(duration);
    return b;
  }

  /// Budget that trips `ms` milliseconds from now (fractions allowed).
  [[nodiscard]] static ComputeBudget with_deadline_ms(double ms) {
    return with_deadline(std::chrono::duration<double, std::milli>(ms));
  }

  /// Caps total charged work units (nodes / iterations / evaluations).
  ComputeBudget& cap_nodes(std::uint64_t max_nodes) {
    has_node_cap_ = true;
    node_cap_ = max_nodes;
    return *this;
  }

  /// Attaches a cancellation token; cancel() on the token trips the
  /// budget at the next charge.
  ComputeBudget& on_token(CancellationToken token) {
    token_ = std::move(token);
    return *this;
  }

  /// Child budget for one worker of a parallel region: same absolute
  /// deadline, same cancellation token, plus `job_token` (cancelled by
  /// the driver when any sibling trips), and a node cap equal to this
  /// budget's remaining headroom. An already-tripped parent forks
  /// children that trip on their first charge. The parallel driver is
  /// responsible for charging the children's used() back into the
  /// parent at the join (see exec::parallel_for_budgeted).
  [[nodiscard]] ComputeBudget fork(CancellationToken job_token) const {
    ComputeBudget child;
    child.has_deadline_ = has_deadline_;
    child.deadline_ = deadline_;
    child.token_ = token_;
    child.aux_token_ = std::move(job_token);
    if (has_node_cap_) {
      child.has_node_cap_ = true;
      child.node_cap_ = node_cap_ > used_ ? node_cap_ - used_ : 0;
    }
    if (stop_ != StopReason::kNone) {
      child.has_node_cap_ = true;
      child.node_cap_ = 0;
    }
    // One eager clock/token check per fork: a chunk charging fewer than
    // kTimeCheckInterval units would otherwise never observe an
    // already-expired deadline through the amortised path.
    (void)child.exhausted();
    return child;
  }

  /// Charges `n` work units. Returns true while within budget; returns
  /// false (and records the stop reason) once any limit is exceeded.
  [[nodiscard]] bool charge(std::uint64_t n = 1) const {
    if (stop_ != StopReason::kNone) return false;
    used_ += n;
    if (has_node_cap_ && used_ > node_cap_) {
      stop_ = StopReason::kNodeCap;
      return false;
    }
    since_time_check_ += n;
    if (since_time_check_ >= kTimeCheckInterval) {
      since_time_check_ = 0;
      return check_slow_limits();
    }
    return true;
  }

  /// Full check (including an immediate clock read) without charging.
  [[nodiscard]] bool exhausted() const {
    if (stop_ != StopReason::kNone) return true;
    if (has_node_cap_ && used_ > node_cap_) {
      stop_ = StopReason::kNodeCap;
      return true;
    }
    return !check_slow_limits();
  }

  [[nodiscard]] StopReason stop_reason() const noexcept { return stop_; }
  [[nodiscard]] std::uint64_t used() const noexcept { return used_; }

 private:
  // Clock reads are amortised over this many charged units. Units range
  // from ~0.1 us (exact-search nodes) to ~25 us (a V(S) evaluation), so
  // this bounds deadline overshoot to a low single-digit number of
  // milliseconds in the worst case.
  static constexpr std::uint64_t kTimeCheckInterval = 64;

  [[nodiscard]] bool check_slow_limits() const {
    if (token_.cancelled() || aux_token_.cancelled()) {
      stop_ = StopReason::kCancelled;
      return false;
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      stop_ = StopReason::kDeadline;
      return false;
    }
    return true;
  }

  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::uint64_t node_cap_ = 0;
  bool has_node_cap_ = false;
  CancellationToken token_;
  CancellationToken aux_token_;  ///< job-level token set by fork()
  mutable std::uint64_t used_ = 0;
  mutable std::uint64_t since_time_check_ = 0;
  mutable StopReason stop_ = StopReason::kNone;
};

/// Label for a degradation note: the budget's stop reason, or
/// "node-cap" when a solver stopped on its own node limit while the
/// budget itself held.
[[nodiscard]] inline const char* stop_label(
    const ComputeBudget& budget) noexcept {
  return budget.stop_reason() == StopReason::kNone
             ? "node-cap"
             : to_string(budget.stop_reason());
}

}  // namespace fedshare::runtime
