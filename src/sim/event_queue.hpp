// Discrete-event simulation core.
//
// A time-ordered queue of events; ties are broken by insertion order so
// runs are fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace fedshare::sim {

/// Minimal DES engine: schedule handlers at absolute times, run in order.
class EventQueue {
 public:
  using Handler = std::function<void(double now)>;

  /// Schedules `handler` at absolute `time` (>= now(); throws otherwise).
  void schedule(double time, Handler handler);

  /// Runs the earliest pending event; returns false if none remain.
  bool run_next();

  /// Runs events until the queue empties or the next event is after
  /// `t_end` (events at exactly t_end run).
  void run_until(double t_end);

  /// Current simulation time (last processed event's time; 0 initially).
  [[nodiscard]] double now() const noexcept { return now_; }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    Handler handler;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace fedshare::sim
