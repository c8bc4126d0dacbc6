// Chaos harness for the serve layer (the ISSUE's acceptance gate).
//
// Randomized churn sequences (joins, leaves, outages, demand swings) are
// applied to a ServiceState while an independent *shadow* model tracks
// the roster the same way. After every epoch the service's published
// share/core/incentive answer must be bitwise identical to a
// from-scratch batch solve (model::Federation over the epoch's effective
// space) — the serve layer's incremental lattice surgery and warm LP
// chains must never change a single bit of any answer. The same holds
// after restarting from any log prefix (crash recovery = replay), at 1
// and 4 worker threads, and after budget-tripped applies once repair()
// has caught the state up.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/lp_relax.hpp"
#include "core/sharing.hpp"
#include "exec/pool.hpp"
#include "model/federation.hpp"
#include "model/value.hpp"
#include "runtime/budget.hpp"
#include "runtime/outage.hpp"
#include "serve/event.hpp"
#include "serve/log.hpp"
#include "serve/state.hpp"

namespace {

using fedshare::model::DemandProfile;
using fedshare::model::FacilityConfig;
using fedshare::model::LocationSpace;
using fedshare::runtime::ComputeBudget;
using fedshare::runtime::StopReason;
using fedshare::serve::ApplyResult;
using fedshare::serve::DemandUpdate;
using fedshare::serve::EpochAnswer;
using fedshare::serve::Event;
using fedshare::serve::FacilityJoin;
using fedshare::serve::FacilityLeave;
using fedshare::serve::OutageEnd;
using fedshare::serve::OutageStart;
using fedshare::serve::ServiceState;

constexpr int kMaxRoster = 4;
const char* const kNames[] = {"A", "B", "C", "D", "E", "F"};

// Restores the global worker count on scope exit so a failing test
// cannot leak a 4-thread pool into unrelated tests.
struct ThreadGuard {
  explicit ThreadGuard(int n) { fedshare::exec::set_threads(n); }
  ~ThreadGuard() { fedshare::exec::set_threads(1); }
};

// --- the shadow model ----------------------------------------------------
// An independent re-implementation of the service's roster rules (slot
// assignment, outage realisation). Kept deliberately simple: no caches,
// no incrementality — it only exists so the batch solve below is built
// from first principles rather than from the service's own state.

struct ShadowMember {
  int slot = 0;
  FacilityConfig config;  // nominal, as joined
  bool outage = false;
  std::vector<bool> up;
};

struct Shadow {
  std::vector<ShadowMember> roster;  // sorted by slot
  DemandProfile demand;
};

int shadow_index(const Shadow& shadow, const std::string& name) {
  for (std::size_t i = 0; i < shadow.roster.size(); ++i) {
    if (shadow.roster[i].config.name == name) return static_cast<int>(i);
  }
  return -1;
}

// The effective space of a shadow roster: outage members are realised
// (survivors at full capacity, down locations dropped), everyone else
// keeps the nominal availability discount. Mirrors the contract in
// serve/state.hpp.
std::vector<FacilityConfig> effective_configs(const Shadow& shadow) {
  std::vector<FacilityConfig> configs;
  configs.reserve(shadow.roster.size());
  for (const ShadowMember& m : shadow.roster) {
    if (!m.outage) {
      configs.push_back(m.config);
      continue;
    }
    FacilityConfig cfg;
    cfg.name = m.config.name;
    cfg.availability = 1.0;
    cfg.units_per_location = m.config.units_per_location;
    for (std::size_t k = 0; k < m.up.size(); ++k) {
      if (!m.up[k]) continue;
      cfg.custom_units.push_back(m.config.custom_units.empty()
                                     ? m.config.units_per_location
                                     : m.config.custom_units[k]);
    }
    cfg.num_locations = static_cast<int>(cfg.custom_units.size());
    configs.push_back(std::move(cfg));
  }
  return configs;
}

// --- random event generation ---------------------------------------------

FacilityConfig random_config(std::mt19937_64& rng, const std::string& name) {
  FacilityConfig cfg;
  cfg.name = name;
  cfg.num_locations = 1 + static_cast<int>(rng() % 4);
  const double units[] = {0.5, 1.0, 2.0};
  const double avail[] = {0.6, 0.8, 1.0};
  cfg.units_per_location = units[rng() % 3];
  cfg.availability = avail[rng() % 3];
  return cfg;
}

DemandProfile random_demand(std::mt19937_64& rng) {
  const double count = 2.0 + static_cast<double>(rng() % 5);
  const double min_locations = 1.0 + static_cast<double>(rng() % 3);
  if (rng() % 2 == 0) {
    return DemandProfile::uniform(count, min_locations);
  }
  // Two classes: multi-row capacity constraints give the revised
  // simplex a real basis, exercising the warm dual re-solve path.
  DemandProfile demand = DemandProfile::uniform(count, min_locations);
  fedshare::model::RequestClass second;
  second.count = 1.0 + static_cast<double>(rng() % 3);
  second.min_locations = 1.0;
  second.units_per_location = 2.0;
  demand.classes.push_back(second);
  return demand;
}

// Draws one event that is valid for the current shadow state and
// applies it to the shadow (sampling outage masks exactly the way the
// service does: OutageModel over the *nominal* roster space).
Event random_event(std::mt19937_64& rng, Shadow& shadow) {
  std::vector<int> kinds;  // 0 join, 1 leave, 2 out-start, 3 out-end, 4 demand
  if (static_cast<int>(shadow.roster.size()) < kMaxRoster) {
    kinds.insert(kinds.end(), {0, 0, 0});
  }
  if (!shadow.roster.empty()) kinds.insert(kinds.end(), {1, 1});
  for (const ShadowMember& m : shadow.roster) {
    if (!m.outage) {
      kinds.insert(kinds.end(), {2, 2});
      break;
    }
  }
  for (const ShadowMember& m : shadow.roster) {
    if (m.outage) {
      kinds.insert(kinds.end(), {3, 3});
      break;
    }
  }
  kinds.push_back(4);
  const int kind = kinds[rng() % kinds.size()];

  switch (kind) {
    case 0: {
      std::string name;
      do {
        name = kNames[rng() % (sizeof(kNames) / sizeof(kNames[0]))];
      } while (shadow_index(shadow, name) >= 0);
      FacilityJoin join;
      join.config = random_config(rng, name);
      std::uint64_t used = 0;
      for (const ShadowMember& m : shadow.roster) {
        used |= std::uint64_t{1} << m.slot;
      }
      ShadowMember member;
      member.slot = 0;
      while (used >> member.slot & 1) ++member.slot;
      member.config = join.config;
      shadow.roster.insert(
          std::upper_bound(shadow.roster.begin(), shadow.roster.end(),
                           member,
                           [](const ShadowMember& a, const ShadowMember& b) {
                             return a.slot < b.slot;
                           }),
          member);
      return join;
    }
    case 1: {
      const std::size_t idx = rng() % shadow.roster.size();
      FacilityLeave leave{shadow.roster[idx].config.name};
      shadow.roster.erase(shadow.roster.begin() +
                          static_cast<std::ptrdiff_t>(idx));
      return Event{leave};
    }
    case 2: {
      std::vector<std::size_t> eligible;
      for (std::size_t i = 0; i < shadow.roster.size(); ++i) {
        if (!shadow.roster[i].outage) eligible.push_back(i);
      }
      const std::size_t idx = eligible[rng() % eligible.size()];
      OutageStart start{shadow.roster[idx].config.name, rng() % 100000 + 1,
                        rng() % 4};
      std::vector<FacilityConfig> nominal;
      nominal.reserve(shadow.roster.size());
      for (const ShadowMember& m : shadow.roster) nominal.push_back(m.config);
      const fedshare::runtime::OutageScenario scenario =
          fedshare::runtime::OutageModel(start.seed).sample(
              LocationSpace::disjoint(std::move(nominal)), start.scenario);
      shadow.roster[idx].outage = true;
      shadow.roster[idx].up = scenario.up[idx];
      return Event{start};
    }
    case 3: {
      std::vector<std::size_t> eligible;
      for (std::size_t i = 0; i < shadow.roster.size(); ++i) {
        if (shadow.roster[i].outage) eligible.push_back(i);
      }
      const std::size_t idx = eligible[rng() % eligible.size()];
      OutageEnd end{shadow.roster[idx].config.name};
      shadow.roster[idx].outage = false;
      shadow.roster[idx].up.clear();
      return Event{end};
    }
    default: {
      DemandUpdate update;
      update.demand = random_demand(rng);
      shadow.demand = update.demand;
      return Event{update};
    }
  }
}

// --- the batch oracle -----------------------------------------------------

// Solves the shadow's epoch from scratch — a fresh model::Federation
// over the effective space, fully tabulated, every scheme evaluated —
// and demands the service's published answer match it bit for bit.
void expect_matches_batch(const EpochAnswer& answer, const Shadow& shadow,
                          const std::string& context) {
  SCOPED_TRACE(context);
  const std::vector<FacilityConfig> configs = effective_configs(shadow);
  const int m = static_cast<int>(configs.size());
  ASSERT_EQ(answer.num_facilities, m);
  ASSERT_FALSE(answer.stale());
  if (m == 0) {
    EXPECT_EQ(answer.grand_value, 0.0);
    EXPECT_TRUE(answer.outcomes.empty());
    return;
  }
  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(answer.names[static_cast<std::size_t>(i)],
              configs[static_cast<std::size_t>(i)].name);
  }

  const LocationSpace space = LocationSpace::disjoint(configs);
  fedshare::model::Federation fed(space, shadow.demand);
  const fedshare::game::TabularGame game = fed.build_game();

  EXPECT_EQ(answer.grand_value, game.grand_value());
  ASSERT_EQ(answer.standalone.size(), static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(answer.standalone[static_cast<std::size_t>(i)],
              game.value(fedshare::game::Coalition::single(i)));
  }

  std::vector<double> availability;
  availability.reserve(static_cast<std::size_t>(m));
  for (const auto& f : space.facilities()) {
    availability.push_back(f.availability_weight());
  }
  const std::vector<double> consumption =
      fedshare::model::consumption_weights(space, shadow.demand);
  const auto outcomes =
      fedshare::game::compare_schemes(game, availability, consumption)
          .outcomes;

  ASSERT_EQ(answer.outcomes.size(), outcomes.size());
  const fedshare::game::SchemeOutcome* shapley = nullptr;
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    SCOPED_TRACE(std::string("scheme ") +
                 fedshare::game::to_string(outcomes[s].scheme));
    EXPECT_EQ(answer.outcomes[s].scheme, outcomes[s].scheme);
    EXPECT_EQ(answer.outcomes[s].in_core, outcomes[s].in_core);
    EXPECT_EQ(answer.outcomes[s].shares, outcomes[s].shares);
    EXPECT_EQ(answer.outcomes[s].payoffs, outcomes[s].payoffs);
    if (outcomes[s].scheme == fedshare::game::Scheme::kShapley) {
      shapley = &outcomes[s];
    }
  }
  ASSERT_NE(shapley, nullptr);
  ASSERT_EQ(answer.incentives.size(), static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const auto fi = static_cast<std::size_t>(i);
    EXPECT_EQ(answer.incentives[fi],
              shapley->payoffs[fi] - answer.standalone[fi]);
  }

  // The LP-relaxation bound is the relaxation's closed-form optimum,
  // which sums in another order than the dense LP's pivots, so it is
  // compared to rounding, not bitwise.
  if (answer.grand_bound.has_value() && !shadow.demand.classes.empty()) {
    const double expected = fedshare::alloc::lp_upper_bound(
        space.pool_for(fedshare::game::Coalition::grand(m)),
        shadow.demand.classes);
    EXPECT_NEAR(*answer.grand_bound, expected,
                1e-12 * (1.0 + std::abs(expected)));
    EXPECT_GE(*answer.grand_bound, answer.grand_value - 1e-7);
  }
}

void expect_bitwise_equal(const EpochAnswer& a, const EpochAnswer& b,
                          const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.num_facilities, b.num_facilities);
  EXPECT_EQ(a.names, b.names);
  EXPECT_EQ(a.grand_value, b.grand_value);
  ASSERT_EQ(a.grand_bound.has_value(), b.grand_bound.has_value());
  if (a.grand_bound.has_value()) {
    EXPECT_EQ(*a.grand_bound, *b.grand_bound);  // replay: bitwise
  }
  EXPECT_EQ(a.standalone, b.standalone);
  EXPECT_EQ(a.incentives, b.incentives);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
    EXPECT_EQ(a.outcomes[s].scheme, b.outcomes[s].scheme);
    EXPECT_EQ(a.outcomes[s].in_core, b.outcomes[s].in_core);
    EXPECT_EQ(a.outcomes[s].shares, b.outcomes[s].shares);
    EXPECT_EQ(a.outcomes[s].payoffs, b.outcomes[s].payoffs);
  }
}

// Runs one full random sequence, checking every epoch against the batch
// oracle. Returns the service so callers can reuse its log.
void run_sequence(std::uint64_t seed, ServiceState& state) {
  std::mt19937_64 rng(seed * 2654435761ULL + 97);
  Shadow shadow;

  // Every sequence opens with a demand profile so epoch values are
  // non-trivial from the first join onward.
  DemandUpdate initial;
  initial.demand = random_demand(rng);
  shadow.demand = initial.demand;
  (void)state.apply(Event{initial});
  expect_matches_batch(state.query(), shadow,
                       "seed " + std::to_string(seed) + " epoch 1");

  const int steps = 3 + static_cast<int>(rng() % 9);  // 4..12 events total
  for (int step = 0; step < steps; ++step) {
    const Event event = random_event(rng, shadow);
    (void)state.apply(event);
    expect_matches_batch(
        state.query(), shadow,
        "seed " + std::to_string(seed) + " epoch " +
            std::to_string(state.epoch()) + " (" +
            fedshare::serve::event_kind(event) + ")");
  }
}

// --- the chaos suites -----------------------------------------------------

TEST(ServeChaosTest, EveryEpochMatchesTheBatchSolveSingleThread) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    ServiceState state;
    run_sequence(seed, state);
  }
}

TEST(ServeChaosTest, EveryEpochMatchesTheBatchSolveFourThreads) {
  ThreadGuard guard(4);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    ServiceState state;
    run_sequence(seed, state);
  }
}

TEST(ServeChaosTest, RestartAndReplayFromAnyPrefixIsBitIdentical) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ServiceState state;
    std::vector<EpochAnswer> recorded;
    recorded.push_back(state.query());  // epoch 0
    {
      std::mt19937_64 rng(seed * 2654435761ULL + 97);
      Shadow shadow;
      DemandUpdate initial;
      initial.demand = random_demand(rng);
      shadow.demand = initial.demand;
      (void)state.apply(Event{initial});
      recorded.push_back(state.query());
      const int steps = 3 + static_cast<int>(rng() % 9);
      for (int step = 0; step < steps; ++step) {
        (void)state.apply(random_event(rng, shadow));
        recorded.push_back(state.query());
      }
    }
    const std::vector<Event> log = state.log();
    ASSERT_EQ(recorded.size(), log.size() + 1);

    // A "crash" at any point leaves some log prefix on disk; recovery
    // replays it into a fresh state. Every prefix must land on exactly
    // the answer the original service published at that epoch.
    for (std::size_t prefix = 0; prefix <= log.size(); ++prefix) {
      ServiceState replica;
      replica.replay_log(log, prefix);
      EXPECT_EQ(replica.epoch(), prefix);
      expect_bitwise_equal(replica.query(), recorded[prefix],
                           "seed " + std::to_string(seed) + " prefix " +
                               std::to_string(prefix));
    }

    // The serialised log round-trips through text, so recovery from a
    // written file is the same as recovery from memory.
    std::ostringstream text;
    fedshare::serve::write_event_log(text, log);
    std::istringstream in(text.str());
    ServiceState from_disk;
    from_disk.replay_log(fedshare::serve::parse_event_log(in));
    expect_bitwise_equal(from_disk.query(), recorded.back(),
                         "seed " + std::to_string(seed) + " from disk");
  }
}

TEST(ServeChaosTest, ReplayAtFourThreadsMatchesSingleThreadAnswers) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    ServiceState state;
    run_sequence(seed, state);
    const EpochAnswer single = state.query();
    ThreadGuard guard(4);
    ServiceState replica;
    replica.replay_log(state.log());
    expect_bitwise_equal(replica.query(), single,
                         "seed " + std::to_string(seed));
  }
}

TEST(ServeChaosTest, TrippedBudgetsStayStaleBoundedAndRepairToBatch) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed * 9176121371ULL + 13);
    ServiceState state;
    Shadow shadow;
    DemandUpdate initial;
    initial.demand = random_demand(rng);
    shadow.demand = initial.demand;
    (void)state.apply(Event{initial});

    EpochAnswer last_complete = state.query();
    const int steps = 3 + static_cast<int>(rng() % 9);
    for (int step = 0; step < steps; ++step) {
      const Event event = random_event(rng, shadow);
      // A third of events run under a hostile budget (tiny node cap or
      // an already-expired deadline) — the service must degrade to a
      // stale-but-bounded answer, never hang, never emit a wrong one.
      ApplyResult applied;
      switch (rng() % 3) {
        case 0:
          applied = state.apply(
              event, ComputeBudget().cap_nodes(rng() % 3));
          break;
        case 1:
          applied =
              state.apply(event, ComputeBudget::with_deadline_ms(0.0));
          break;
        default:
          applied = state.apply(event);
          break;
      }
      const EpochAnswer answer = state.query();
      EXPECT_EQ(answer.current_epoch, state.epoch());
      if (!applied.complete) {
        EXPECT_NE(applied.stop, StopReason::kNone);
        EXPECT_TRUE(state.dirty());
        ASSERT_TRUE(answer.stale());
        EXPECT_EQ(answer.degraded, applied.stop);
        // The stale answer is the previously *published* epoch, intact.
        EpochAnswer expected = last_complete;
        expected.current_epoch = answer.current_epoch;
        expected.degraded = answer.degraded;
        expect_bitwise_equal(answer, expected,
                             "seed " + std::to_string(seed) + " stale at " +
                                 std::to_string(state.epoch()));
        // Repair under an unlimited budget catches the state up; the
        // result must equal the from-scratch batch solve exactly.
        const ApplyResult repaired = state.repair();
        EXPECT_TRUE(repaired.complete);
      }
      const EpochAnswer fresh = state.query();
      expect_matches_batch(fresh, shadow,
                           "seed " + std::to_string(seed) + " epoch " +
                               std::to_string(state.epoch()));
      last_complete = fresh;
    }
  }
}

// --- the crash-injection kill-point matrix --------------------------------
// A process dies at the worst possible moments of the durability
// protocol; recovery from the surviving files must land bitwise on the
// uncrashed run's answer at the recovered epoch, and finishing the
// event sequence from there must land bitwise on the uncrashed final
// answer. Each kill point is simulated by mutating the log directory
// exactly the way a SIGKILL at that instant would leave it (the
// end-to-end SIGKILL path itself is exercised by fedshare_cli
// --crash-at-epoch under tools/crash_check.sh).
namespace fs = std::filesystem;

enum class KillPoint {
  kMidLogAppend,        // torn tail: a partial event line, no newline
  kMidCheckpointWrite,  // a partial checkpoint temp file left behind
  kCheckpointCorrupt,   // newest checkpoint truncated mid-file
  kCheckpointLost,      // rename not yet durable: newest checkpoint gone
  kDuringRepair,        // died while the state was budget-dirty
};
constexpr KillPoint kKillPoints[] = {
    KillPoint::kMidLogAppend, KillPoint::kMidCheckpointWrite,
    KillPoint::kCheckpointCorrupt, KillPoint::kCheckpointLost,
    KillPoint::kDuringRepair};
constexpr std::size_t kNumKillPoints =
    sizeof(kKillPoints) / sizeof(kKillPoints[0]);

struct ChaosTempDir {
  explicit ChaosTempDir(std::uint64_t seed) {
    std::ostringstream name;
    name << "fedshare_chaos_" << ::getpid() << "_" << seed;
    path = (fs::temp_directory_path() / name.str()).string();
    fs::remove_all(path);
  }
  ~ChaosTempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string padded12(std::uint64_t n) {
  std::ostringstream out;
  out << std::setw(12) << std::setfill('0') << n;
  return out.str();
}

std::optional<std::string> newest_checkpoint(const std::string& dir) {
  std::optional<std::string> newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0 &&
        (!newest || name > *newest)) {
      newest = name;
    }
  }
  if (!newest) return std::nullopt;
  return dir + "/" + *newest;
}

void run_crash_recovery(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::mt19937_64 rng(seed * 7540113804746346429ULL + 31);

  // The event sequence, generated up front via the shadow model.
  std::vector<Event> events;
  {
    Shadow shadow;
    DemandUpdate initial;
    initial.demand = random_demand(rng);
    shadow.demand = initial.demand;
    events.emplace_back(initial);
    const int steps = 3 + static_cast<int>(rng() % 9);
    for (int step = 0; step < steps; ++step) {
      events.push_back(random_event(rng, shadow));
    }
  }

  // The uncrashed reference run, answers recorded per epoch.
  std::vector<EpochAnswer> recorded;
  {
    ServiceState reference;
    recorded.push_back(reference.query());
    for (const Event& event : events) {
      (void)reference.apply(event);
      recorded.push_back(reference.query());
    }
  }

  const std::size_t crash_epoch = 1 + rng() % events.size();
  const KillPoint kill = kKillPoints[seed % kNumKillPoints];
  ChaosTempDir dir(seed);
  fedshare::serve::DurableLogOptions log_options;
  log_options.checkpoint_every = 1 + seed % 3;
  log_options.retain_checkpoints = 2;

  // The crashing run: apply + append up to the crash epoch, then die.
  {
    fedshare::serve::DurableLog log(dir.path, log_options);
    ServiceState state;
    (void)log.recover(state);
    for (std::size_t i = 0; i < crash_epoch; ++i) {
      const bool last = i + 1 == crash_epoch;
      if (last && kill == KillPoint::kDuringRepair) {
        // The final event trips its budget; the process dies with the
        // state dirty and the (durable) event unresolved.
        (void)state.apply(events[i],
                          ComputeBudget().cap_nodes(rng() % 2));
      } else {
        (void)state.apply(events[i]);
      }
      log.append(events[i], state);
    }
    // No clean shutdown: the DurableLog is simply abandoned here, and
    // the kill-point mutation below forges the mid-operation wreckage.
  }
  switch (kill) {
    case KillPoint::kMidLogAppend: {
      const Event next = crash_epoch < events.size()
                             ? events[crash_epoch]
                             : events.front();
      const std::string line = fedshare::serve::format_event(next);
      std::ofstream out(dir.path + "/events-000000000000.log",
                        std::ios::app | std::ios::binary);
      out << line.substr(0, 1 + line.size() / 2);  // no newline
      break;
    }
    case KillPoint::kMidCheckpointWrite: {
      std::ofstream out(dir.path + "/checkpoint-" + padded12(crash_epoch) +
                        ".ckpt.tmp");
      out << "fedshare-checkpoint v1\nepoch " << crash_epoch << "\n";
      break;
    }
    case KillPoint::kCheckpointCorrupt: {
      if (const auto path = newest_checkpoint(dir.path)) {
        fs::resize_file(*path, fs::file_size(*path) / 2);
      }
      break;
    }
    case KillPoint::kCheckpointLost: {
      if (const auto path = newest_checkpoint(dir.path)) fs::remove(*path);
      break;
    }
    case KillPoint::kDuringRepair:
      break;
  }

  // Recovery: bitwise-equal to the uncrashed run at the recovered
  // epoch, then finish the sequence and match the final answer too.
  fedshare::serve::DurableLog log(dir.path, log_options);
  ServiceState state;
  const fedshare::serve::RecoveryReport report = log.recover(state);
  EXPECT_EQ(report.total_events, crash_epoch);
  if (kill == KillPoint::kMidLogAppend) {
    EXPECT_TRUE(report.used_fallback);  // the torn tail was reported
  }
  if (kill == KillPoint::kCheckpointCorrupt &&
      log_options.checkpoint_every <= crash_epoch) {
    EXPECT_TRUE(report.used_fallback);  // the corrupt checkpoint was
  }
  EXPECT_FALSE(state.dirty());  // recovery replays under no budget
  expect_bitwise_equal(
      state.query(), recorded[report.total_events],
      "recovered at epoch " + std::to_string(report.total_events) +
          " (kill point " + std::to_string(static_cast<int>(kill)) + ")");

  for (std::size_t i = report.total_events; i < events.size(); ++i) {
    (void)state.apply(events[i]);
    log.append(events[i], state);
    expect_bitwise_equal(state.query(), recorded[i + 1],
                         "resumed epoch " + std::to_string(i + 1));
  }
  expect_bitwise_equal(state.query(), recorded.back(), "final answer");
}

TEST(ServeChaosTest, CrashRecoveryKillPointMatrixSingleThread) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    run_crash_recovery(seed);
  }
}

TEST(ServeChaosTest, CrashRecoveryKillPointMatrixFourThreads) {
  ThreadGuard guard(4);
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    run_crash_recovery(seed);
  }
}

TEST(ServeChaosTest, RejectedEventsLeaveThePublishedAnswerUntouched) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    std::mt19937_64 rng(seed * 40503017ULL + 7);
    ServiceState state;
    Shadow shadow;
    DemandUpdate initial;
    initial.demand = random_demand(rng);
    shadow.demand = initial.demand;
    (void)state.apply(Event{initial});
    for (int step = 0; step < 6; ++step) {
      (void)state.apply(random_event(rng, shadow));
    }
    const EpochAnswer before = state.query();
    const std::uint64_t epoch = state.epoch();

    // A barrage of semantically invalid events: every one must throw
    // and none may advance the epoch or disturb the answer.
    std::vector<Event> invalid{Event{FacilityLeave{"NOBODY"}},
                               Event{OutageEnd{"NOBODY"}},
                               Event{OutageStart{"NOBODY", 1, 0}}};
    if (!shadow.roster.empty()) {
      FacilityJoin dup;
      dup.config = shadow.roster[0].config;  // name already federated
      invalid.push_back(Event{dup});
    }
    for (const Event& event : invalid) {
      EXPECT_THROW((void)state.apply(event), fedshare::serve::ServeError);
    }
    EXPECT_EQ(state.epoch(), epoch);
    expect_bitwise_equal(state.query(), before,
                         "seed " + std::to_string(seed));
  }
}

}  // namespace
