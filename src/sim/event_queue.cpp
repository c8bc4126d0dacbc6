#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace fedshare::sim {

void EventQueue::schedule(double time, Handler handler) {
  if (!handler) {
    throw std::invalid_argument("EventQueue::schedule: null handler");
  }
  if (time < now_) {
    throw std::invalid_argument(
        "EventQueue::schedule: cannot schedule in the past");
  }
  queue_.push(Entry{time, next_seq_++, std::move(handler)});
}

bool EventQueue::run_next() {
  if (queue_.empty()) return false;
  // priority_queue::top() is const; move out via const_cast is UB-adjacent,
  // so copy the handler (events are small closures).
  Entry e = queue_.top();
  queue_.pop();
  now_ = e.time;
  e.handler(now_);
  return true;
}

void EventQueue::run_until(double t_end) {
  while (!queue_.empty() && queue_.top().time <= t_end) {
    run_next();
  }
  if (now_ < t_end) now_ = t_end;
}

}  // namespace fedshare::sim
