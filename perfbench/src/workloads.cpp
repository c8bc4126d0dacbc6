#include "workloads.hpp"

#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>

#include "checks.hpp"
#include "cli/runner.hpp"
#include "core/banzhaf.hpp"
#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/properties.hpp"
#include "core/sharing.hpp"
#include "inputs.hpp"
#include "io/config.hpp"
#include "model/value.hpp"
#include "serve/state.hpp"

namespace fedbench {

using namespace fedshare;

void Trace::record(const std::string& name, bool layer, double ms) {
  row_[name] += ms;
  if (layer) layer_ms_ += ms;
}

void Trace::end_op(double op_ms) {
  row_["op_ms"] = op_ms;
  row_["layer_ms"] = layer_ms_;
  rows_.push_back(std::move(row_));
  row_.clear();
  layer_ms_ = 0.0;
}

namespace {

// Printed shares are rounded to 4 decimals (the report's default
// precision), so each can be off by half a unit in the last place.
constexpr double kPrintUlp = 0.5e-4;

std::vector<double> scaled(const std::vector<double>& shares, double total) {
  std::vector<double> out(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) out[i] = shares[i] * total;
  return out;
}

std::vector<double> nucleolus_share_vector(const game::NucleolusResult& r,
                                           double total, int n) {
  if (std::abs(total) < 1e-12) return game::equal_shares(n);
  std::vector<double> shares(r.allocation.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    shares[i] = r.allocation[i] / total;
  }
  return shares;
}

// The six scheme rows of compare_schemes, computed one layer call at a
// time under `trace`, for game `g` of federation weights (avail, cons).
// `layer` says whether these calls are the op's own work or an outside
// re-run.
ShareTable traced_schemes(Trace& trace, bool layer,
                          const game::TabularGame& g,
                          const std::vector<double>& avail,
                          const std::vector<double>& cons,
                          const lp::SimplexOptions& lp_options) {
  const int n = g.num_players();
  const double total = g.grand_value();
  ShareTable table;
  table.schemes = {"shapley",   "prop-availability", "prop-consumption",
                   "equal",     "nucleolus",         "banzhaf"};
  table.shares.push_back(trace.span("core.shapley_ms", layer, [&] {
    return game::shapley_shares(g);
  }));
  table.shares.push_back(game::proportional_shares(avail));
  table.shares.push_back(game::proportional_shares(cons));
  table.shares.push_back(game::equal_shares(n));
  const game::NucleolusResult r =
      trace.span("core.nucleolus_ms", layer,
                 [&] { return game::nucleolus(g, lp_options); });
  trace.count("core.nucleolus_rows", static_cast<double>(r.excess_rows));
  trace.count("lp.solves", static_cast<double>(r.lps_solved));
  trace.count("lp.pivots", static_cast<double>(r.pivots));
  table.shares.push_back(nucleolus_share_vector(r, total, n));
  table.shares.push_back(trace.span("core.banzhaf_ms", layer, [&] {
    return game::banzhaf_index(g);
  }));
  trace.span("core.core_check_ms", layer, [&] {
    for (const auto& shares : table.shares) {
      (void)game::in_core(g, scaled(shares, total));
    }
  });
  return table;
}

// Largest entry-wise gap between two share tables of equal shape, or
// infinity when the shapes differ.
double max_gap(const ShareTable& a, const ShareTable& b) {
  if (a.schemes != b.schemes || a.shares.size() != b.shares.size()) {
    return INFINITY;
  }
  double gap = 0.0;
  for (std::size_t s = 0; s < a.shares.size(); ++s) {
    if (a.shares[s].size() != b.shares[s].size()) return INFINITY;
    for (std::size_t i = 0; i < a.shares[s].size(); ++i) {
      gap = std::max(gap, std::abs(a.shares[s][i] - b.shares[s][i]));
    }
  }
  return gap;
}

// One op: cli::run_report_result on one seed-generated INI config with
// default options, as `fedshare_cli <config>` runs it.
class ReportWorkload final : public Workload {
 public:
  ReportWorkload(std::uint64_t seed, std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      Rng rng(stream_seed("report_hetero", seed, i));
      texts_.push_back(banded_config(rng, kUnits));
    }
  }

  [[nodiscard]] std::size_t num_ops() const override { return texts_.size(); }

  // Parses every config and builds its federation.
  void setup() override {
    configs_.clear();
    configs_.reserve(texts_.size());
    for (const std::string& text : texts_) {
      configs_.push_back(io::Config::parse_string(text));
      (void)cli::federation_from_config(configs_.back());
    }
  }

  void op(std::size_t i) override {
    result_ = cli::run_report_result(configs_[i], options_);
  }

  std::string check(std::size_t) override {
    if (result_.degraded()) {
      return "degraded sections: " + result_.degraded_sections.front();
    }
    const auto table = parse_share_table(result_.text, n());
    if (!table) return "report has no readable Sharing schemes table";
    return check_shares(*table, n(), n() * kPrintUlp + 1e-12);
  }

  std::string trace_op(std::size_t i, Trace& trace) override {
    const io::Config config = trace.span("io.parse_ms", false, [&] {
      return io::Config::parse_string(texts_[i]);
    });
    const model::Federation fed = trace.span(
        "model.federation_ms", true,
        [&] { return cli::federation_from_config(config); });
    const game::TabularGame g = trace.span(
        "model.tabulate_ms", true,
        [&] { return fed.build_game(options_.symmetry); });
    const exec::CacheStats stats = fed.value_cache().stats();
    trace.count("exec.cache_hits", static_cast<double>(stats.hits));
    trace.count("exec.cache_misses", static_cast<double>(stats.misses));
    (void)trace.span("core.properties_ms", true, [&] {
      return game::analyze_properties(g, 1e-9);
    });
    trace.count("model.coalitions", std::ldexp(1.0, n()));
    const auto weights = trace.span("model.weights_ms", true, [&] {
      return std::make_pair(fed.availability_weights(),
                            fed.consumption_weights());
    });
    lp::SimplexOptions lp_options;
    lp_options.solver = options_.lp_solver;
    const ShareTable layered = traced_schemes(
        trace, true, g, weights.first, weights.second, lp_options);

    const auto t0 = Clock::now();
    op(i);
    trace.end_op(ms_since(t0));

    std::string failure = check(i);
    if (!failure.empty()) return failure;
    const auto table = parse_share_table(result_.text, n());
    if (max_gap(layered, *table) > kPrintUlp + 1e-9) {
      return "layer-by-layer shares disagree with the report";
    }
    return {};
  }

 private:
  // Units per band (see banded_config). This pattern gives every seed
  // the same nucleolus probe count, so the ops have one cost mode.
  inline static const std::vector<int> kUnits{1, 2, 1, 2, 1, 2};

  [[nodiscard]] static int n() { return static_cast<int>(kUnits.size()); }

  std::vector<std::string> texts_;
  std::vector<io::Config> configs_;
  cli::ReportOptions options_;
  cli::ReportResult result_;
};

// One op: outage-start on one facility, query, outage-end, query, on a
// serve::ServiceState holding the kServeRoster roster.
class ServeFlapWorkload final : public Workload {
 public:
  ServeFlapWorkload(std::uint64_t seed, std::size_t ops)
      : roster_(serve_roster()) {
    Rng rng(stream_seed("serve_flap", seed, 0));
    for (std::size_t i = 0; i < ops; ++i) {
      flaps_.push_back(serve_flap(rng, i));
      starts_.push_back(outage_start(flaps_.back()));
      ends_.push_back(outage_end(flaps_.back()));
    }
    ran_.reserve(2 * ops);
  }

  [[nodiscard]] std::size_t num_ops() const override { return flaps_.size(); }

  void setup() override {
    state_ = std::make_unique<serve::ServiceState>();
    for (const serve::Event& event : roster_) {
      if (!state_->apply(event).complete) {
        throw std::runtime_error("serve: roster assembly did not complete");
      }
    }
    base_ = state_->query();
    ran_.clear();
    replayed_ops_ = 0;
    replay_want_.reset();
  }

  void op(std::size_t i) override {
    start_ = state_->apply(starts_[i]);
    down_ = state_->query();
    end_ = state_->apply(ends_[i]);
    up_ = state_->query();
  }

  std::string check(std::size_t i) override {
    ran_.push_back(i);
    if (!start_.complete || !end_.complete) return "apply did not complete";
    for (const auto* answer : {&down_, &up_}) {
      std::string failure = check_answer(*answer);
      if (!failure.empty()) return failure;
    }
    // The outage-end restores the assembled roster, so the answer must
    // be the one published right after setup.
    if (!same_answer(up_, base_)) return "outage-end did not restore";
    return {};
  }

  std::string trace_op(std::size_t i, Trace& trace) override {
    start_ = trace.span("serve.apply_outage_start_ms", true,
                        [&] { return state_->apply(starts_[i]); });
    down_ = trace.span("serve.query_ms", true,
                       [&] { return state_->query(); });
    count_apply(trace, start_);
    republish(trace);
    end_ = trace.span("serve.apply_outage_end_ms", true,
                      [&] { return state_->apply(ends_[i]); });
    up_ = trace.span("serve.query_ms", true, [&] { return state_->query(); });
    count_apply(trace, end_);
    republish(trace);
    // Only the four serve calls belong to the op; the re-runs in
    // republish() happen between them and are not part of its latency.
    trace.end_op(trace.layer_ms());
    return check(i);
  }

  // Replaying the whole run would cost as much as the run, so the
  // replay covers the script up to the end of the first pass.
  void end_pass() override {
    if (replay_want_) return;
    replayed_ops_ = ran_.size();
    replay_want_ = state_->query();
  }

  std::string finish() override {
    if (!replay_want_) end_pass();
    std::vector<serve::Event> script = roster_;
    for (std::size_t k = 0; k < replayed_ops_; ++k) {
      script.push_back(starts_[ran_[k]]);
      script.push_back(ends_[ran_[k]]);
    }
    serve::ServiceState replayed;
    replayed.replay_log(script);
    const serve::EpochAnswer got = replayed.query();
    if (got.epoch != replay_want_->epoch || !same_answer(got, *replay_want_)) {
      return "replaying the script gives a different answer";
    }
    return {};
  }

  std::map<std::string, double> run_counters() const override {
    // An epoch revisits when its roster state (which facility is down,
    // under which outage draw) occurred at an earlier epoch of the run.
    using Key = std::tuple<int, std::uint64_t, std::uint64_t>;
    const Key up{-1, 0, 0};
    std::set<Key> seen{up};
    double revisits = 0.0;
    for (const std::size_t i : ran_) {
      const Flap& f = flaps_[i];
      revisits += seen.insert(Key{f.facility, f.outage_seed, f.scenario})
                          .second
                      ? 0.0
                      : 1.0;
      revisits += 1.0;  // the outage-end returns to `up`
    }
    const double epochs = 2.0 * static_cast<double>(ran_.size());
    return {{"serve.revisit_frac", epochs > 0.0 ? revisits / epochs : 0.0}};
  }

 private:
  static void count_apply(Trace& trace, const serve::ApplyResult& r) {
    trace.count("serve.invalidated", static_cast<double>(r.invalidated));
    trace.count("serve.values_recomputed",
                static_cast<double>(r.values_recomputed));
    trace.count("serve.lp_solves", static_cast<double>(r.lp_solves));
    trace.count("serve.lp_warm", static_cast<double>(r.lp_incremental));
    trace.count("serve.lp_pivots", static_cast<double>(r.lp_pivots));
  }

  // Re-runs the publish step of the last apply on its snapshot: once as
  // the whole compare_schemes call, once split into core layer calls.
  void republish(Trace& trace) const {
    const auto snap = state_->snapshot();
    const game::TabularGame& g = *snap->game;
    std::vector<double> avail;
    for (const auto& f : snap->space.facilities()) {
      avail.push_back(f.availability_weight());
    }
    const std::vector<double> cons =
        model::consumption_weights(snap->space, snap->demand);
    lp::SimplexOptions lp_options;
    lp_options.solver = state_->options().lp_solver;
    (void)trace.span("serve.publish_ms", false, [&] {
      return game::compare_schemes(g, avail, cons, lp_options);
    });
    (void)traced_schemes(trace, false, g, avail, cons, lp_options);
  }

  std::vector<serve::Event> roster_;
  std::vector<Flap> flaps_;
  std::vector<serve::Event> starts_;
  std::vector<serve::Event> ends_;
  std::unique_ptr<serve::ServiceState> state_;
  serve::EpochAnswer base_;
  serve::ApplyResult start_;
  serve::ApplyResult end_;
  serve::EpochAnswer down_;
  serve::EpochAnswer up_;
  std::vector<std::size_t> ran_;  ///< op indices in the order they ran
  std::size_t replayed_ops_ = 0;  ///< ops in ran_ up to the first pass end
  std::optional<serve::EpochAnswer> replay_want_;  ///< answer at that point
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, std::size_t ops) {
  if (name == "report_hetero") {
    return std::make_unique<ReportWorkload>(seed, ops);
  }
  if (name == "serve_flap") {
    return std::make_unique<ServeFlapWorkload>(seed, ops);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace fedbench
