#include "cli/serve_runner.hpp"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "io/table.hpp"
#include "serve/event.hpp"
#include "serve/log.hpp"
#include "serve/maintenance.hpp"
#include "serve/state.hpp"

namespace fedshare::cli {

namespace {

runtime::ComputeBudget event_budget(const ServeRunOptions& options) {
  return options.deadline_ms.has_value()
             ? runtime::ComputeBudget::with_deadline_ms(*options.deadline_ms)
             : runtime::ComputeBudget::unlimited();
}

// One log line per applied event: what it was, what it invalidated, and
// how much re-solve work the incremental machinery actually did.
void print_apply(std::ostream& out, const serve::ApplyResult& result) {
  out << "epoch " << result.epoch << ": " << result.kind
      << " — invalidated " << result.invalidated << ", V recomputed "
      << result.values_recomputed;
  if (result.lp_solves > 0) {
    out << ", LP " << result.lp_solves << " (" << result.lp_incremental
        << " warm, " << result.lp_cold << " cold)";
  }
  if (!result.complete) {
    out << " — INCOMPLETE (" << runtime::to_string(result.stop) << ")";
  }
  out << "\n";
}

void print_answer(std::ostream& out, const serve::EpochAnswer& answer,
                  int precision) {
  std::ostringstream title;
  title << "Service answer (epoch " << answer.epoch << ")";
  io::print_heading(out, title.str());
  if (answer.stale()) {
    out << "STALE: answered at epoch " << answer.epoch
        << ", service is at epoch " << answer.current_epoch << " ("
        << runtime::to_string(answer.degraded) << ")\n";
  }
  if (answer.num_facilities == 0) {
    out << "federation is empty\n";
    return;
  }
  out << "facilities:";
  for (const auto& name : answer.names) out << " " << name;
  out << "\n";
  out << "V(N): " << io::format_double(answer.grand_value, precision);
  if (answer.grand_bound.has_value()) {
    out << "  (LP relaxation bound: "
        << io::format_double(*answer.grand_bound, precision) << ")";
  }
  out << "\n\n";

  std::vector<std::string> headers{"scheme"};
  for (const auto& name : answer.names) headers.push_back(name);
  headers.emplace_back("in core");
  io::Table table(std::move(headers));
  table.set_align(0, io::Align::kLeft);
  for (const auto& o : answer.outcomes) {
    std::vector<std::string> row{game::to_string(o.scheme)};
    for (int i = 0; i < answer.num_facilities; ++i) {
      row.push_back(io::format_double(o.shares[static_cast<std::size_t>(i)],
                                      precision));
    }
    row.emplace_back(game::in_core_label(o));
    table.add_row(std::move(row));
  }
  table.print(out);
  for (const auto& skipped : answer.skipped) {
    out << "note: " << skipped.note() << "\n";
  }

  if (!answer.incentives.empty()) {
    out << "\n";
    io::Table inc(std::vector<std::string>{"facility", "standalone",
                                           "shapley payoff",
                                           "join surplus"});
    inc.set_align(0, io::Align::kLeft);
    const game::SchemeOutcome* shapley = nullptr;
    for (const auto& o : answer.outcomes) {
      if (o.scheme == game::Scheme::kShapley) shapley = &o;
    }
    for (int i = 0; i < answer.num_facilities; ++i) {
      const auto fi = static_cast<std::size_t>(i);
      inc.add_row(
          {answer.names[fi],
           io::format_double(answer.standalone[fi], precision),
           io::format_double(
               shapley ? shapley->payoffs[fi] : 0.0, precision),
           io::format_double(answer.incentives[fi], precision)});
    }
    inc.print(out);
  }
}

void print_stats(std::ostream& out, const serve::ServiceStats& stats) {
  io::print_heading(out, "Service stats");
  out << "events applied: " << stats.events_applied << "\n";
  out << "V(S) recomputed: " << stats.values_recomputed << "\n";
  out << "LP solves: " << stats.lp_solves << " (" << stats.lp_incremental
      << " warm, " << stats.lp_cold << " cold), " << stats.lp_pivots
      << " pivots\n";
  out << "value cache: " << stats.cache.entries << " entries, "
      << stats.cache.hits << " hits, " << stats.cache.misses << " misses, "
      << stats.cache.invalidations << " invalidated\n";
  out << "degradation history: " << stats.epochs_tripped
      << " epochs tripped, " << stats.epochs_repaired << " repaired late, "
      << stats.repairs << " repairs\n";
}

// Raises SIGKILL: no flush, no destructors, no atexit — the closest a
// test harness gets to a power cut without pulling the plug.
[[noreturn]] void crash_now() {
#ifndef _WIN32
  (void)std::raise(SIGKILL);
#endif
  std::abort();  // unreachable on POSIX; Windows fallback
}

}  // namespace

ServeRunResult run_serve(std::istream& events,
                         const ServeRunOptions& options) {
  const std::vector<serve::Event> log = serve::parse_event_log(events);

  serve::ServeOptions serve_options;
  serve_options.track_bounds = options.track_bounds;
  serve::ServiceState state(serve_options);

  ServeRunResult result;
  std::ostringstream out;

  // Durable mode: recover from the log directory first, then apply only
  // the script suffix past the recovered epoch.
  std::unique_ptr<serve::DurableLog> durable;
  std::size_t skip = 0;
  if (options.log_dir.has_value()) {
    serve::DurableLogOptions log_options;
    log_options.checkpoint_every = options.checkpoint_every;
    log_options.retain_checkpoints = options.retain_checkpoints;
    durable = std::make_unique<serve::DurableLog>(*options.log_dir,
                                                  log_options);
    const serve::RecoveryReport recovery = durable->recover(state);
    result.recovery_fallback = recovery.used_fallback;
    result.recovery_notes = recovery.notes;
    result.recovered_checkpoint_epoch = recovery.checkpoint_epoch;
    result.recovered_events = recovery.total_events;
    result.replayed_events = recovery.replayed_events;
    skip = static_cast<std::size_t>(
        std::min<std::uint64_t>(recovery.total_events, log.size()));

    io::print_heading(out, "Durability");
    out << "log: " << *options.log_dir << " (" << recovery.total_events
        << " events durable)\n";
    if (recovery.checkpoint_epoch > 0) {
      out << "recovery: checkpoint epoch " << recovery.checkpoint_epoch
          << ", replayed " << recovery.replayed_events << " events\n";
    } else if (recovery.total_events > 0) {
      out << "recovery: full replay of " << recovery.replayed_events
          << " events\n";
    }
    for (const std::string& note : recovery.notes) {
      out << "note: " << note << "\n";
    }
    if (skip > 0) {
      out << "resuming at script event " << skip + 1 << " of "
          << log.size() << "\n";
    }
  }

  // Background repair: heals budget-tripped epochs while later events
  // stream in, so a trip degrades one query window, not the whole run.
  std::unique_ptr<serve::MaintenanceThread> maintenance;
  if (options.maintenance) {
    maintenance = std::make_unique<serve::MaintenanceThread>(state);
  }

  io::print_heading(out, "Event log");
  for (std::size_t i = skip; i < log.size(); ++i) {
    const serve::Event& event = log[i];
    try {
      const serve::ApplyResult applied =
          state.apply(event, event_budget(options));
      if (durable) durable->append(event, state);
      print_apply(out, applied);
      if (maintenance && !applied.complete) maintenance->notify();
    } catch (const serve::ServeError& e) {
      out << "invalid event (" << serve::event_kind(event)
          << "): " << e.what() << "\n";
      result.error = e.what();
      break;
    }
    if (options.crash_at_epoch.has_value() &&
        state.epoch() == *options.crash_at_epoch) {
      crash_now();
    }
  }

  if (maintenance) {
    // Drain: give the background repairs a chance to publish the final
    // heal before rendering the answer (bounded wait; a still-dirty
    // state just reports degraded as usual).
    (void)maintenance->wait_until_clean(10'000.0);
    if (durable) (void)durable->checkpoint_now(state);  // deferred due
    const serve::MaintenanceStats mstats = maintenance->stats();
    maintenance->stop();
    out << "maintenance: " << mstats.attempts << " attempts, "
        << mstats.heals << " heals, " << mstats.yields << " yields, "
        << mstats.exhaustions << " exhaustions\n";
  }

  const serve::EpochAnswer answer = state.query();
  print_answer(out, answer, options.precision);
  print_stats(out, state.stats());

  result.degraded = answer.stale();
  result.stop = answer.degraded;
  for (const auto& skipped : answer.skipped) {
    result.skipped.push_back(skipped.scheme);
  }
  result.text = out.str();
  return result;
}

}  // namespace fedshare::cli
