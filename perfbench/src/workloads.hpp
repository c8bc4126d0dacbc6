// The benchmark workloads. Each drives fedshare's public library calls
// on seed-generated inputs, one op at a time (a closed loop of one
// client), and checks every op's output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace fedbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Per-layer samples of a traced run: one row per traced op, holding
/// the op's summed span times (ms) and counters by metric name.
class Trace {
 public:
  using Row = std::map<std::string, double>;

  /// Times `f` as one call into the layer `name` and adds it to the
  /// current op's row. `layer` marks spans that run inside the op being
  /// measured; their sum is the op's attributed time. Other spans time
  /// extra calls made from outside the op (to split a layer further) and
  /// do not count toward it.
  template <class F>
  decltype(auto) span(const std::string& name, bool layer, F&& f) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      record(name, layer, ms_since(t0));
    } else {
      auto result = f();
      record(name, layer, ms_since(t0));
      return result;
    }
  }

  /// Adds `value` to the counter `name` of the current op.
  void count(const std::string& name, double value) { row_[name] += value; }

  /// Closes the current op. `op_ms` is the op's latency in this run.
  void end_op(double op_ms);

  /// Attributed time of the current op so far.
  [[nodiscard]] double layer_ms() const noexcept { return layer_ms_; }

  [[nodiscard]] const std::vector<Row>& rows() const noexcept {
    return rows_;
  }

 private:
  void record(const std::string& name, bool layer, double ms);

  Row row_;
  double layer_ms_ = 0.0;
  std::vector<Row> rows_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Ops in the run's list: warm-up ops first, then timed ops.
  [[nodiscard]] virtual std::size_t num_ops() const = 0;

  /// Builds, anew, the state the ops run against. May be called more
  /// than once; the last call's state is the one the ops use.
  virtual void setup() = 0;

  /// Runs op `i`: the timed call(s) only.
  virtual void op(std::size_t i) = 0;

  /// Checks the output of the op just run; empty when correct.
  [[nodiscard]] virtual std::string check(std::size_t i) = 0;

  /// Re-runs op `i` layer by layer under `trace`, then runs the op
  /// itself and passes its latency to trace.end_op(). Returns the
  /// combined check result.
  [[nodiscard]] virtual std::string trace_op(std::size_t i, Trace& trace) = 0;

  /// Marks the end of one pass over the op list.
  virtual void end_pass() {}

  /// End-of-run check over what the run did; empty when correct.
  [[nodiscard]] virtual std::string finish() { return {}; }

  /// Run-level counters for the traced run (e.g. the script's revisit
  /// fraction), by metric name.
  [[nodiscard]] virtual std::map<std::string, double> run_counters() const {
    return {};
  }
};

/// Builds workload `name` with `ops` ops generated from `seed`. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      std::size_t ops);

}  // namespace fedbench
