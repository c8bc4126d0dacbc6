// Unit tests for the serve layer: event log parsing/round-tripping,
// the epoch-versioned state machine's churn semantics (slot reuse,
// slice invalidation, stale-but-bounded answers, repair), and the CLI
// serve runner. The randomized equivalence-with-batch harness lives in
// test_serve_chaos.cpp.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/lp_relax.hpp"
#include "cli/serve_runner.hpp"
#include "core/limits.hpp"
#include "core/sharing.hpp"
#include "core/symmetry.hpp"
#include "exec/pool.hpp"
#include "lp/simplex.hpp"
#include "model/value.hpp"
#include "runtime/budget.hpp"
#include "serve/answer_memo.hpp"
#include "serve/event.hpp"
#include "serve/state.hpp"
#include "verify/certified.hpp"
#include "cli_fixtures.hpp"

namespace {

using fedshare::cli::fixtures::serve_from_string;
using fedshare::runtime::ComputeBudget;
using fedshare::runtime::StopReason;
using fedshare::serve::ApplyResult;
using fedshare::serve::DemandUpdate;
using fedshare::serve::Event;
using fedshare::serve::FacilityJoin;
using fedshare::serve::FacilityLeave;
using fedshare::serve::OutageEnd;
using fedshare::serve::OutageStart;
using fedshare::serve::ServeError;
using fedshare::serve::ServiceState;

Event join_event(const std::string& name, int locations, double units,
                 double availability) {
  FacilityJoin join;
  join.config.name = name;
  join.config.num_locations = locations;
  join.config.units_per_location = units;
  join.config.availability = availability;
  return join;
}

Event demand_event(double count, double min_locations, double units = 1.0) {
  DemandUpdate update;
  update.demand = fedshare::model::DemandProfile::uniform(
      count, min_locations, 1.0, units);
  return update;
}

// --- event log format ----------------------------------------------------

TEST(ServeEventTest, EveryEventKindRoundTripsExactly) {
  FacilityJoin join;
  join.config.name = "PLC";
  join.config.num_locations = 3;
  join.config.units_per_location = 0.1 + 0.2;  // not exactly 0.3
  join.config.availability = 1.0 / 3.0;
  join.config.custom_units = {2.0, 1.0 / 7.0, 4.0};
  const std::vector<Event> events{
      join,
      FacilityLeave{"PLC"},
      OutageStart{"PLC", 12345678901234567ULL, 42},
      OutageEnd{"PLC"},
      demand_event(10.0, 450.0),
  };
  for (const Event& event : events) {
    const std::string line = fedshare::serve::format_event(event);
    const Event reparsed = fedshare::serve::parse_event(line);
    EXPECT_EQ(fedshare::serve::format_event(reparsed), line);
    EXPECT_EQ(reparsed.index(), event.index());
  }
}

TEST(ServeEventTest, DoublesRoundTripBitForBit) {
  DemandUpdate update;
  fedshare::model::RequestClass rc;
  rc.count = 1e9;
  rc.min_locations = 0.30000000000000004;  // 0.1 + 0.2
  rc.units_per_location = 1.0 / 3.0;
  rc.exponent = 0.7;
  rc.holding_time = 2.5e-3;
  update.demand.classes = {rc};
  const auto reparsed = std::get<DemandUpdate>(fedshare::serve::parse_event(
      fedshare::serve::format_event(Event{update})));
  const auto& back = reparsed.demand.classes.at(0);
  EXPECT_EQ(back.count, rc.count);
  EXPECT_EQ(back.min_locations, rc.min_locations);
  EXPECT_EQ(back.units_per_location, rc.units_per_location);
  EXPECT_EQ(back.exponent, rc.exponent);
  EXPECT_EQ(back.holding_time, rc.holding_time);
}

TEST(ServeEventTest, ParserRejectsMalformedLines) {
  EXPECT_THROW(fedshare::serve::parse_event(""), ServeError);
  EXPECT_THROW(fedshare::serve::parse_event("frobnicate name=A"), ServeError);
  EXPECT_THROW(fedshare::serve::parse_event("leave"), ServeError);
  EXPECT_THROW(fedshare::serve::parse_event("leave name="), ServeError);
  EXPECT_THROW(fedshare::serve::parse_event("join name=A"), ServeError);
  EXPECT_THROW(
      fedshare::serve::parse_event("join name=A locations=two"), ServeError);
  EXPECT_THROW(
      fedshare::serve::parse_event("join name=A locations=2 locations=3"),
      ServeError);
  EXPECT_THROW(
      fedshare::serve::parse_event("join name=A locations=2 color=red"),
      ServeError);
  // Out-of-domain values go through FacilityConfig validation.
  EXPECT_THROW(fedshare::serve::parse_event(
                   "join name=A locations=2 availability=1.5"),
               ServeError);
  EXPECT_THROW(fedshare::serve::parse_event("demand "), ServeError);
}

TEST(ServeEventTest, LogParserSkipsCommentsAndReportsLineNumbers) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "join name=A locations=2   # trailing comment\n"
      "leave nam=A\n");
  try {
    (void)fedshare::serve::parse_event_log(in);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
  std::istringstream ok("# only comments\n\n");
  EXPECT_TRUE(fedshare::serve::parse_event_log(ok).empty());
}

TEST(ServeEventTest, WriteLogReadsBack) {
  std::vector<Event> log{demand_event(4.0, 3.0),
                         join_event("A", 4, 2.0, 0.9),
                         OutageStart{"A", 7, 0}};
  std::ostringstream out;
  fedshare::serve::write_event_log(out, log);
  std::istringstream in(out.str());
  const auto back = fedshare::serve::parse_event_log(in);
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(fedshare::serve::format_event(back[i]),
              fedshare::serve::format_event(log[i]));
  }
}

// --- state machine -------------------------------------------------------

TEST(ServeStateTest, FreshStateIsEmptyEpochZero) {
  ServiceState state;
  EXPECT_EQ(state.epoch(), 0u);
  EXPECT_FALSE(state.dirty());
  const auto answer = state.query();
  EXPECT_EQ(answer.epoch, 0u);
  EXPECT_EQ(answer.num_facilities, 0);
  EXPECT_FALSE(answer.stale());
  EXPECT_TRUE(answer.outcomes.empty());
}

TEST(ServeStateTest, EpochAdvancesPerEventAndLogAppends) {
  ServiceState state;
  (void)state.apply(demand_event(4.0, 3.0));
  (void)state.apply(join_event("A", 3, 2.0, 1.0));
  (void)state.apply(join_event("B", 2, 1.0, 0.5));
  EXPECT_EQ(state.epoch(), 3u);
  EXPECT_EQ(state.log().size(), 3u);
  const auto answer = state.query();
  EXPECT_EQ(answer.epoch, 3u);
  EXPECT_EQ(answer.num_facilities, 2);
  EXPECT_GT(answer.grand_value, 0.0);
  ASSERT_EQ(answer.incentives.size(), 2u);
  // Superadditive game: joining never hurts.
  EXPECT_GE(answer.incentives[0], 0.0);
  EXPECT_GE(answer.incentives[1], 0.0);
}

TEST(ServeStateTest, InvalidEventsThrowWithoutAdvancingTheEpoch) {
  ServiceState state;
  (void)state.apply(join_event("A", 2, 1.0, 1.0));
  const std::uint64_t epoch = state.epoch();
  EXPECT_THROW((void)state.apply(join_event("A", 2, 1.0, 1.0)), ServeError);
  EXPECT_THROW((void)state.apply(Event{FacilityLeave{"nope"}}), ServeError);
  EXPECT_THROW((void)state.apply(Event{OutageEnd{"A"}}), ServeError);
  (void)state.apply(Event{OutageStart{"A", 1, 0}});
  EXPECT_THROW((void)state.apply(Event{OutageStart{"A", 1, 1}}), ServeError);
  EXPECT_EQ(state.epoch(), epoch + 1);  // only the valid outage applied
  EXPECT_EQ(state.log().size(), 2u);
}

// The roster holds kMaxFacilities members; the next join is refused with
// a message naming the entry. The joins skip their re-solve (a zero node
// cap): the roster check comes first and is all this test reads.
TEST(ServeStateTest, RosterCapIsEnforced) {
  fedshare::serve::ServeOptions options;
  options.track_bounds = false;
  ServiceState state(options);
  const int cap = static_cast<int>(fedshare::limits::kMaxFacilities.value);
  for (int i = 0; i < cap; ++i) {
    (void)state.apply(join_event("F" + std::to_string(i), 1, 1.0, 1.0),
                      ComputeBudget().cap_nodes(0));
  }
  EXPECT_EQ(state.log().size(), static_cast<std::size_t>(cap));
  try {
    (void)state.apply(join_event("extra", 1, 1.0, 1.0),
                      ComputeBudget().cap_nodes(0));
    FAIL() << "a join past kMaxFacilities was accepted";
  } catch (const ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxFacilities"), std::string::npos)
        << e.what();
  }
}

TEST(ServeStateTest, LeaversFreeTheirSlotForLaterJoiners) {
  ServiceState state;
  (void)state.apply(join_event("A", 1, 1.0, 1.0));
  (void)state.apply(join_event("B", 1, 1.0, 1.0));
  (void)state.apply(Event{FacilityLeave{"A"}});
  (void)state.apply(join_event("C", 1, 1.0, 1.0));
  const auto snap = state.snapshot();
  ASSERT_EQ(snap->names.size(), 2u);
  // Roster is slot-ordered: C reused A's slot 0, B kept slot 1.
  EXPECT_EQ(snap->names[0], "C");
  EXPECT_EQ(snap->slots[0], 0);
  EXPECT_EQ(snap->names[1], "B");
  EXPECT_EQ(snap->slots[1], 1);
}

TEST(ServeStateTest, EventsInvalidateOnlyTheTouchedSlice) {
  ServiceState state;
  (void)state.apply(demand_event(6.0, 2.0));
  (void)state.apply(join_event("A", 2, 2.0, 1.0));
  (void)state.apply(join_event("B", 2, 1.0, 1.0));
  const ApplyResult join_c = state.apply(join_event("C", 2, 1.0, 0.5));
  // C's slot is fresh: nothing cached mentions it yet.
  EXPECT_EQ(join_c.invalidated, 0u);
  // The four new masks containing C were materialised.
  EXPECT_EQ(join_c.values_recomputed, 4u);

  const ApplyResult outage = state.apply(Event{OutageStart{"B", 3, 0}});
  // Half the 3-facility lattice contains B: 4 masks dropped, 4 redone.
  EXPECT_EQ(outage.invalidated, 4u);
  EXPECT_EQ(outage.values_recomputed, 4u);

  const ApplyResult leave = state.apply(Event{FacilityLeave{"C"}});
  EXPECT_EQ(leave.invalidated, 4u);
  // Remaining lattice is complete: a leave recomputes nothing.
  EXPECT_EQ(leave.values_recomputed, 0u);

  const ApplyResult demand = state.apply(demand_event(2.0, 1.0));
  EXPECT_EQ(demand.invalidated, 3u);  // everything cached
  EXPECT_EQ(demand.values_recomputed, 3u);
}

TEST(ServeStateTest, TrippedApplyPublishesStaleButBoundedAnswer) {
  ServiceState state;
  (void)state.apply(demand_event(6.0, 2.0));
  (void)state.apply(join_event("A", 2, 2.0, 1.0));
  const auto before = state.query();
  ASSERT_FALSE(before.stale());

  // A node cap of 0 trips on the first V(S) materialisation.
  const ApplyResult tripped = state.apply(
      join_event("B", 2, 1.0, 1.0), ComputeBudget().cap_nodes(0));
  EXPECT_FALSE(tripped.complete);
  EXPECT_EQ(tripped.stop, StopReason::kNodeCap);
  EXPECT_EQ(state.epoch(), 3u);  // the event still happened
  EXPECT_TRUE(state.dirty());

  const auto stale = state.query();
  EXPECT_TRUE(stale.stale());
  EXPECT_EQ(stale.epoch, 2u);          // answered at the last solved epoch
  EXPECT_EQ(stale.current_epoch, 3u);  // tagged with the current epoch
  EXPECT_EQ(stale.degraded, StopReason::kNodeCap);
  // The stale answer is the *previous* epoch's, intact.
  EXPECT_EQ(stale.grand_value, before.grand_value);

  const ApplyResult repaired = state.repair();
  EXPECT_TRUE(repaired.complete);
  EXPECT_FALSE(state.dirty());
  const auto fresh = state.query();
  EXPECT_FALSE(fresh.stale());
  EXPECT_EQ(fresh.epoch, 3u);
  EXPECT_EQ(fresh.num_facilities, 2);

  // Repair is idempotent: a second call is a no-op.
  const ApplyResult noop = state.repair();
  EXPECT_TRUE(noop.complete);
  EXPECT_EQ(noop.values_recomputed, 0u);
}

TEST(ServeStateTest, CancelledBudgetNeverHangsAndTagsTheAnswer) {
  ServiceState state;
  (void)state.apply(demand_event(4.0, 2.0));
  auto token = fedshare::runtime::CancellationToken::create();
  token.cancel();
  const ApplyResult tripped = state.apply(
      join_event("A", 2, 1.0, 1.0), ComputeBudget().on_token(token));
  EXPECT_FALSE(tripped.complete);
  EXPECT_EQ(tripped.stop, StopReason::kCancelled);
  EXPECT_EQ(state.query().degraded, StopReason::kCancelled);
  (void)state.repair();
  EXPECT_FALSE(state.query().stale());
}

TEST(ServeStateTest, RepairAccumulatesAcrossMultipleTrippedEvents) {
  ServiceState state;
  (void)state.apply(demand_event(4.0, 2.0));
  // Two churn events in a row, both under a tripping budget.
  (void)state.apply(join_event("A", 2, 1.0, 1.0),
                    ComputeBudget().cap_nodes(0));
  (void)state.apply(join_event("B", 2, 1.0, 0.5),
                    ComputeBudget().cap_nodes(0));
  EXPECT_TRUE(state.dirty());
  EXPECT_EQ(state.epoch(), 3u);
  (void)state.repair();
  const auto answer = state.query();
  EXPECT_FALSE(answer.stale());
  EXPECT_EQ(answer.epoch, 3u);
  EXPECT_EQ(answer.num_facilities, 2);
}

TEST(ServeStateTest, PartialWorkIsReusedAfterATrip) {
  ServiceState state;
  (void)state.apply(demand_event(6.0, 2.0));
  (void)state.apply(join_event("A", 2, 2.0, 1.0));
  (void)state.apply(join_event("B", 2, 1.0, 1.0));
  // Joining C needs 4 new V(S); allow only 2.
  const ApplyResult tripped = state.apply(
      join_event("C", 2, 1.0, 0.5), ComputeBudget().cap_nodes(2));
  EXPECT_FALSE(tripped.complete);
  const ApplyResult repaired = state.repair();
  EXPECT_TRUE(repaired.complete);
  // The trip's partial work was kept: repair only did the remainder,
  // strictly less than the full 4-mask slice. (values_recomputed counts
  // attempted materialisations — cache misses — so the tripped attempt
  // itself shows up once without having produced a value.)
  EXPECT_LT(repaired.values_recomputed, 4u);
  EXPECT_GE(tripped.values_recomputed + repaired.values_recomputed, 4u);
  EXPECT_LE(tripped.values_recomputed + repaired.values_recomputed, 5u);
}

TEST(ServeStateTest, ReplayLogRequiresAFreshState) {
  ServiceState state;
  (void)state.apply(demand_event(4.0, 2.0));
  EXPECT_THROW(state.replay_log(state.log()), ServeError);

  ServiceState replica;
  replica.replay_log(state.log());
  EXPECT_EQ(replica.epoch(), 1u);
}

TEST(ServeStateTest, GrandBoundIsAnUpperBoundOnGrandValue) {
  ServiceState state;
  (void)state.apply(demand_event(6.0, 2.0));
  (void)state.apply(join_event("A", 3, 2.0, 0.9));
  (void)state.apply(join_event("B", 2, 1.0, 0.8));
  const auto answer = state.query();
  ASSERT_TRUE(answer.grand_bound.has_value());
  EXPECT_GE(*answer.grand_bound, answer.grand_value - 1e-9);
}

// A federation with a two-class demand, so each location's share of the
// relaxation fills two classes.
void assemble_two_class(ServiceState& state) {
  (void)state.apply(fedshare::serve::parse_event(
      "demand count=6,min_locations=2;count=2,min_locations=1,units=2"));
  (void)state.apply(join_event("A", 3, 2.0, 0.9));
  (void)state.apply(join_event("B", 2, 1.0, 0.8));
  (void)state.apply(join_event("C", 2, 1.5, 1.0));
}

// The published bound against the reference: the dense LP of the
// relaxation over the epoch's effective grand pool. The closed form
// sums in another order than the simplex pivots, so the two agree to
// rounding, not bitwise.
void expect_bound_is_the_lps(const ServiceState& state,
                             const std::string& what) {
  SCOPED_TRACE(what);
  const auto snap = state.snapshot();
  ASSERT_TRUE(snap->answer.grand_bound.has_value());
  const double lp = fedshare::alloc::lp_upper_bound(
      snap->space.pool_for(
          fedshare::game::Coalition::grand(snap->answer.num_facilities)),
      snap->demand.classes);
  EXPECT_NEAR(*snap->answer.grand_bound, lp,
              1e-12 * std::max(1.0, std::abs(lp)));
  EXPECT_GE(*snap->answer.grand_bound, snap->answer.grand_value - 1e-9);
}

// An epoch runs no LP for its bound. After an outage and a leave the
// bound is the relaxation LP's optimum on the effective pool, and an
// outage flap lands back on the pre-outage bound bit for bit.
TEST(ServeStateTest, BoundMatchesTheLpAfterOutageAndLeave) {
  ServiceState state;
  assemble_two_class(state);
  expect_bound_is_the_lps(state, "assembled");
  const auto before = state.query();

  const ApplyResult start = state.apply(Event{OutageStart{"B", 3, 0}});
  EXPECT_EQ(start.lp_solves, 0u);
  expect_bound_is_the_lps(state, "outage-start");

  const ApplyResult end = state.apply(Event{OutageEnd{"B"}});
  EXPECT_EQ(end.lp_solves, 0u);
  const auto after = state.query();
  ASSERT_TRUE(after.grand_bound.has_value());
  EXPECT_EQ(*after.grand_bound, *before.grand_bound);  // bitwise

  const ApplyResult leave = state.apply(Event{FacilityLeave{"C"}});
  EXPECT_EQ(leave.lp_solves, 0u);
  expect_bound_is_the_lps(state, "leave");
}

// Join and demand change the pool and the classes; the bound follows.
TEST(ServeStateTest, BoundMatchesTheLpAfterJoinAndDemand) {
  ServiceState state;
  assemble_two_class(state);

  const ApplyResult join = state.apply(join_event("D", 2, 1.0, 0.7));
  EXPECT_EQ(join.lp_solves, 0u);
  expect_bound_is_the_lps(state, "join");

  const ApplyResult demand = state.apply(demand_event(4.0, 2.0));
  EXPECT_EQ(demand.lp_solves, 0u);
  expect_bound_is_the_lps(state, "demand");
}

TEST(ServeStateTest, TrackBoundsOffSkipsTheLpTable) {
  fedshare::serve::ServeOptions options;
  options.track_bounds = false;
  ServiceState state(options);
  (void)state.apply(demand_event(6.0, 2.0));
  const ApplyResult join = state.apply(join_event("A", 3, 2.0, 0.9));
  EXPECT_EQ(join.lp_solves, 0u);
  EXPECT_FALSE(state.query().grand_bound.has_value());
  EXPECT_TRUE(state.checkpoint_image().bounds.empty());
}

TEST(ServeStateTest, StatsAggregateAcrossEvents) {
  ServiceState state;
  (void)state.apply(demand_event(6.0, 2.0));
  (void)state.apply(join_event("A", 2, 2.0, 1.0));
  (void)state.apply(join_event("B", 2, 1.0, 1.0));
  (void)state.apply(Event{OutageStart{"A", 5, 0}});
  const auto stats = state.stats();
  EXPECT_EQ(stats.epoch, 4u);
  EXPECT_EQ(stats.events_applied, 4u);
  EXPECT_EQ(stats.values_recomputed, 1u + 2u + 2u);
  EXPECT_EQ(stats.cache.misses, stats.values_recomputed);
  EXPECT_EQ(stats.cache.invalidations, 2u);  // outage dropped masks 1, 3
}

// The nucleolus row of the service's current answer, checked bitwise
// against game::compare_schemes with default SimplexOptions on the same
// snapshot — the call the report makes — so serve and the report share
// one nucleolus.
void expect_served_nucleolus_is_the_reports(const ServiceState& state,
                                            const std::string& what) {
  SCOPED_TRACE(what);
  const auto snap = state.snapshot();
  if (!snap->game.has_value()) return;  // no facility yet
  std::vector<double> availability;
  for (const auto& f : snap->space.facilities()) {
    availability.push_back(f.availability_weight());
  }
  const auto report = fedshare::game::compare_schemes(
      *snap->game, availability,
      fedshare::model::consumption_weights(snap->space, snap->demand));
  const auto nucleolus_of = [](const auto& outcomes) {
    const auto it = std::find_if(
        outcomes.begin(), outcomes.end(), [](const auto& o) {
          return o.scheme == fedshare::game::Scheme::kNucleolus;
        });
    return it == outcomes.end() ? nullptr : &*it;
  };
  const auto answer = state.query();
  const auto* want = nucleolus_of(report.outcomes);
  const auto* got = nucleolus_of(answer.outcomes);
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->payoffs, want->payoffs);
  EXPECT_EQ(got->shares, want->shares);
  EXPECT_EQ(got->in_core, want->in_core);
}

// Ten joins under an exhausted budget leave every epoch unpublished; the
// eleventh, unbudgeted, publishes n = 11 in one go, nucleolus included:
// its 2046 dense excess rows are well under kMaxExcessRows.
TEST(ServeStateTest, ElevenFacilitiesPublishTheNucleolus) {
  ServiceState state;
  (void)state.apply(demand_event(4.0, 50.0));
  for (int i = 0; i < 10; ++i) {
    const ApplyResult tripped =
        state.apply(join_event("F" + std::to_string(i), 20 + i, 1.0, 1.0),
                    ComputeBudget().cap_nodes(0));
    ASSERT_FALSE(tripped.complete) << "join " << i;
  }
  ASSERT_TRUE(state.apply(join_event("F10", 30, 1.0, 1.0)).complete);
  const auto answer = state.query();
  ASSERT_FALSE(answer.stale());
  ASSERT_EQ(answer.num_facilities, 11);
  EXPECT_TRUE(answer.skipped.empty());
  bool has_nucleolus = false;
  for (const auto& o : answer.outcomes) {
    has_nucleolus |= o.scheme == fedshare::game::Scheme::kNucleolus;
    EXPECT_TRUE(o.in_core.has_value());
  }
  EXPECT_TRUE(has_nucleolus);
  expect_served_nucleolus_is_the_reports(state, "n = 11");
}

// Every epoch of the demo script, and the six-facility flat roster of
// perfbench's serve_flap (near-additive: most rows tight at the least
// core).
TEST(ServeStateTest, PublishedNucleolusIsTheReportsBitwise) {
  std::ifstream in(std::string(FEDSHARE_SOURCE_DIR) +
                   "/configs/serve_demo.events");
  ASSERT_TRUE(in) << "missing configs/serve_demo.events";
  ServiceState demo;
  for (const Event& event : fedshare::serve::parse_event_log(in)) {
    const ApplyResult r = demo.apply(event);
    expect_served_nucleolus_is_the_reports(
        demo, "demo epoch " + std::to_string(r.epoch));
  }

  ServiceState flat;
  DemandUpdate demand;
  demand.demand = fedshare::model::DemandProfile::uniform(8.0, 6.0);
  fedshare::model::RequestClass second;
  second.count = 3.0;
  second.min_locations = 2.0;
  second.units_per_location = 2.0;
  demand.demand.classes.push_back(second);
  (void)flat.apply(demand);
  for (int i = 0; i < 6; ++i) {
    FacilityJoin join;
    join.config.name = "F" + std::to_string(i);
    join.config.num_locations = 4 + i % 3;
    join.config.units_per_location = 1.0 + 0.5 * (i % 2);
    join.config.availability = 0.9 - 0.05 * i;
    (void)flat.apply(join);
  }
  expect_served_nucleolus_is_the_reports(flat, "flat roster");
}

// A serve epoch's rows are game::compare_schemes on that snapshot's
// game, bit for bit: with the engine the service runs, and again with
// the CLI's --verify full observer riding on the LP options.
TEST(ServeStateTest, EpochOutcomesAreCompareSchemesBitwise) {
  ServiceState state;
  (void)state.apply(demand_event(6.0, 2.0));
  (void)state.apply(join_event("A", 3, 2.0, 0.9));
  (void)state.apply(join_event("B", 2, 1.0, 0.8));
  (void)state.apply(join_event("C", 4, 1.0, 0.7));
  (void)state.apply(Event{OutageStart{"A", 7, 1}});
  const auto snap = state.snapshot();
  ASSERT_TRUE(snap->game.has_value());
  std::vector<double> availability;
  for (const auto& f : snap->space.facilities()) {
    availability.push_back(f.availability_weight());
  }
  const std::vector<double> consumption =
      fedshare::model::consumption_weights(snap->space, snap->demand);
  fedshare::lp::SimplexOptions lp_options;
  fedshare::verify::VerifyOptions full;
  full.level = fedshare::verify::VerifyLevel::kFull;
  fedshare::verify::CertifyingObserver observer(full, lp_options);
  fedshare::lp::SimplexOptions observed = lp_options;
  observed.observer = &observer;

  const auto& answer = snap->answer;
  for (const auto* options : {&lp_options, &observed}) {
    const auto direct = fedshare::game::compare_schemes(
        *snap->game, availability, consumption, *options);
    ASSERT_EQ(answer.outcomes.size(), direct.outcomes.size());
    for (std::size_t s = 0; s < direct.outcomes.size(); ++s) {
      const auto& want = direct.outcomes[s];
      const auto& got = answer.outcomes[s];
      SCOPED_TRACE(fedshare::game::to_string(want.scheme));
      EXPECT_EQ(got.scheme, want.scheme);
      EXPECT_EQ(got.shares, want.shares);
      EXPECT_EQ(got.payoffs, want.payoffs);
      ASSERT_TRUE(got.in_core.has_value());
      EXPECT_EQ(got.in_core, want.in_core);
    }
    EXPECT_TRUE(direct.skipped.empty());
  }
  EXPECT_GT(observer.stats().solves, 0u);
  EXPECT_EQ(observer.stats().failures, 0u);
}

// --- published-answer memo ---------------------------------------------

using fedshare::serve::AnswerMemo;
using fedshare::serve::EpochAnswer;

// Every field an answer publishes, compared bit for bit (epoch tags
// aside).
void expect_same_answer(const EpochAnswer& got, const EpochAnswer& want) {
  EXPECT_EQ(got.names, want.names);
  EXPECT_EQ(got.grand_value, want.grand_value);
  EXPECT_EQ(got.grand_bound, want.grand_bound);
  EXPECT_EQ(got.standalone, want.standalone);
  EXPECT_EQ(got.incentives, want.incentives);
  ASSERT_EQ(got.outcomes.size(), want.outcomes.size());
  for (std::size_t s = 0; s < want.outcomes.size(); ++s) {
    SCOPED_TRACE(fedshare::game::to_string(want.outcomes[s].scheme));
    EXPECT_EQ(got.outcomes[s].scheme, want.outcomes[s].scheme);
    EXPECT_EQ(got.outcomes[s].shares, want.outcomes[s].shares);
    EXPECT_EQ(got.outcomes[s].payoffs, want.outcomes[s].payoffs);
    EXPECT_EQ(got.outcomes[s].in_core, want.outcomes[s].in_core);
  }
  ASSERT_EQ(got.skipped.size(), want.skipped.size());
  for (std::size_t s = 0; s < want.skipped.size(); ++s) {
    EXPECT_EQ(got.skipped[s].note(), want.skipped[s].note());
    EXPECT_EQ(got.skipped[s].size_limit, want.skipped[s].size_limit);
  }
}

// `events` outage events flapping A, B and C in turn over two seeds and
// two scenarios, so outage-starts revisit earlier draws too.
std::vector<Event> flap_script(int events) {
  std::vector<Event> script;
  for (int i = 0; i < events / 2; ++i) {
    const std::string name(1, static_cast<char>('A' + i % 3));
    script.emplace_back(OutageStart{name,
                                    1 + static_cast<std::uint64_t>(i % 2),
                                    static_cast<std::uint64_t>(i / 6 % 2)});
    script.emplace_back(OutageEnd{name});
  }
  return script;
}

TEST(ServeAnswerMemoTest, FlapEndReusesThePreOutageAnswerBitwise) {
  ServiceState state;
  assemble_two_class(state);
  const EpochAnswer before = state.query();
  const ApplyResult start = state.apply(Event{OutageStart{"B", 3, 0}});
  EXPECT_FALSE(start.answer_reused);
  const ApplyResult end = state.apply(Event{OutageEnd{"B"}});
  EXPECT_TRUE(end.answer_reused);
  const EpochAnswer after = state.query();
  EXPECT_EQ(after.epoch, before.epoch + 2);
  expect_same_answer(after, before);
  EXPECT_EQ(state.stats().answers_reused, 1u);
}

// Memo hits come from anywhere in a long history; a fresh state replays
// each prefix with only that prefix behind it. Both must agree, and the
// rows must be compare_schemes on the epoch's game, solved cold.
TEST(ServeAnswerMemoTest, FlapScriptAnswersEqualAFreshReplayOfEachPrefix) {
  ServiceState state;
  assemble_two_class(state);
  const std::vector<Event> script = flap_script(200);
  ASSERT_EQ(script.size(), 200u);
  std::vector<EpochAnswer> answers;
  for (const Event& event : script) {
    const ApplyResult r = state.apply(event);
    if (std::holds_alternative<OutageEnd>(event)) {
      EXPECT_TRUE(r.answer_reused) << "epoch " << r.epoch;
    }
    answers.push_back(state.query());

    const auto snap = state.snapshot();
    std::vector<double> availability;
    for (const auto& f : snap->space.facilities()) {
      availability.push_back(f.availability_weight());
    }
    const auto cold = fedshare::game::compare_schemes(
        *snap->game, availability,
        fedshare::model::consumption_weights(snap->space, snap->demand));
    EpochAnswer want = answers.back();
    want.outcomes = cold.outcomes;
    want.skipped = cold.skipped;
    SCOPED_TRACE("epoch " + std::to_string(r.epoch));
    expect_same_answer(answers.back(), want);
  }
  // Every outage-end reuses, and of the outage-starts at most the 12
  // (facility, seed, scenario) draws are new games.
  EXPECT_GE(state.stats().answers_reused, 200u - 12u);

  const std::vector<Event> log = state.log();
  const std::size_t assembled = log.size() - script.size();
  for (std::size_t k = 0; k < script.size(); ++k) {
    ServiceState replica;
    replica.replay_log(log, assembled + k + 1);
    SCOPED_TRACE("prefix " + std::to_string(assembled + k + 1));
    const EpochAnswer got = replica.query();
    EXPECT_EQ(got.epoch, answers[k].epoch);
    expect_same_answer(got, answers[k]);
  }
}

// Synthetic memo inputs for an m-facility roster, distinct per `tag`.
struct MemoInputs {
  std::vector<double> table;
  std::vector<double> availability;
  std::vector<double> consumption;
};

MemoInputs memo_inputs(int m, double tag) {
  MemoInputs in;
  const std::size_t size = std::size_t{1} << m;
  in.table.resize(size);
  for (std::size_t mask = 1; mask < size; ++mask) {
    in.table[mask] = tag + static_cast<double>(__builtin_popcountll(mask));
  }
  in.availability.assign(static_cast<std::size_t>(m), 1.0);
  in.consumption.assign(static_cast<std::size_t>(m), 2.0);
  return in;
}

AnswerMemo::Answer memo_answer(int m) {
  fedshare::game::SchemeOutcome equal;
  equal.scheme = fedshare::game::Scheme::kEqual;
  equal.shares.assign(static_cast<std::size_t>(m), 1.0 / m);
  equal.payoffs.assign(static_cast<std::size_t>(m), 1.0);
  equal.in_core = true;
  return {{equal}, {}};
}

bool memo_has(AnswerMemo& memo, const MemoInputs& in) {
  return memo.find(in.table, in.availability, in.consumption) != nullptr;
}

void memo_store(AnswerMemo& memo, const MemoInputs& in, int m) {
  memo.store(in.table, in.availability, in.consumption, memo_answer(m));
}

TEST(ServeAnswerMemoTest, OneUlpOrOtherWeightsMiss) {
  AnswerMemo memo(std::size_t{1} << 20);
  const MemoInputs in = memo_inputs(4, 0.5);
  memo_store(memo, in, 4);
  const AnswerMemo::Answer* hit =
      memo.find(in.table, in.availability, in.consumption);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->outcomes[0].shares, memo_answer(4).outcomes[0].shares);

  MemoInputs ulp = in;
  ulp.table[5] = std::nextafter(ulp.table[5], 1e300);
  EXPECT_FALSE(memo_has(memo, ulp));
  MemoInputs signed_zero = in;
  signed_zero.table[0] = -0.0;  // equal as a double, not as bits
  EXPECT_FALSE(memo_has(memo, signed_zero));
  MemoInputs availability = in;
  availability.availability[2] = 0.5;
  EXPECT_FALSE(memo_has(memo, availability));
  MemoInputs consumption = in;
  consumption.consumption[0] = std::nextafter(2.0, 0.0);
  EXPECT_FALSE(memo_has(memo, consumption));
  MemoInputs swapped = in;
  std::swap(swapped.availability, swapped.consumption);
  EXPECT_FALSE(memo_has(memo, swapped));
  EXPECT_TRUE(memo_has(memo, in));
  EXPECT_EQ(memo.size(), 1u);
}

TEST(ServeAnswerMemoTest, EvictionKeepsBytesWithinTheBudgetAtTwelve) {
  constexpr int m = 12;
  AnswerMemo probe(std::size_t{1} << 30);
  memo_store(probe, memo_inputs(m, 0.0), m);
  const std::size_t entry = probe.bytes();
  ASSERT_GT(entry, (std::size_t{1} << m) * sizeof(double));

  const std::size_t budget = 3 * entry + entry / 2;  // three entries
  AnswerMemo memo(budget);
  for (int k = 0; k < 10; ++k) {
    memo_store(memo, memo_inputs(m, k), m);
    EXPECT_LE(memo.bytes(), budget) << "after entry " << k;
    EXPECT_EQ(memo.size(), static_cast<std::size_t>(std::min(k + 1, 3)))
        << "after entry " << k;
    // Least recently used goes first: a hit on the oldest survivor (2)
    // keeps it over the entry after it (3).
    if (k == 4) {
      ASSERT_TRUE(memo_has(memo, memo_inputs(m, 2)));
    }
    if (k == 5) {
      EXPECT_FALSE(memo_has(memo, memo_inputs(m, 3)));
      EXPECT_TRUE(memo_has(memo, memo_inputs(m, 2)));
    }
  }
  EXPECT_FALSE(memo_has(memo, memo_inputs(m, 6)));
  for (const int k : {7, 8, 9}) {
    EXPECT_TRUE(memo_has(memo, memo_inputs(m, k))) << k;
  }

  AnswerMemo tiny(entry - 1);  // one entry would overflow it
  memo_store(tiny, memo_inputs(m, 0.0), m);
  EXPECT_EQ(tiny.size(), 0u);
  EXPECT_EQ(tiny.bytes(), 0u);
}

// Neither the answer memo nor the V(S) memo is persisted: a restored
// state solves its first publish cold and recomputes the returning slice
// where the uncrashed one reuses both, and both land on the same bits.
TEST(ServeAnswerMemoTest, RestoreStartsColdAndAnswersBitwise) {
  ServiceState uncrashed;
  assemble_two_class(uncrashed);
  (void)uncrashed.apply(Event{OutageStart{"B", 3, 0}});
  ServiceState restored;
  restored.restore(uncrashed.checkpoint_image());

  const Event end{OutageEnd{"B"}};
  const ApplyResult live = uncrashed.apply(end);
  const ApplyResult cold = restored.apply(end);
  EXPECT_TRUE(live.answer_reused);
  EXPECT_FALSE(cold.answer_reused);
  EXPECT_EQ(live.values_recomputed, 0u);
  EXPECT_EQ(cold.values_recomputed, 4u);
  EXPECT_EQ(restored.stats().answers_reused, 0u);
  EXPECT_EQ(restored.query().epoch, uncrashed.query().epoch);
  expect_same_answer(restored.query(), uncrashed.query());
}

// --- V(S) memo -----------------------------------------------------------

// The raw V(S) memo (mask, value bits), read through the checkpoint
// image.
std::vector<std::pair<std::uint64_t, std::uint64_t>> raw_table_bits(
    const ServiceState& state) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bits;
  for (const auto& [mask, value] : state.checkpoint_image().cache) {
    bits.emplace_back(mask, std::bit_cast<std::uint64_t>(value));
  }
  return bits;
}

// What a fresh state publishes after replaying `state`'s whole log.
EpochAnswer replayed(const ServiceState& state) {
  ServiceState replica;
  replica.replay_log(state.log());
  return replica.query();
}

// An outage-end finds the pre-outage slice in the V(S) memo: no V(S) is
// recomputed and the raw table is the pre-outage one bit for bit.
TEST(ServeStateTest, OutageEndRestoresTheNominalSliceBitwise) {
  ServiceState state;
  assemble_two_class(state);
  const auto before = raw_table_bits(state);
  const ApplyResult start = state.apply(Event{OutageStart{"B", 3, 0}});
  EXPECT_EQ(start.values_recomputed, 4u);  // the masks that hold B
  expect_same_answer(state.query(), replayed(state));
  const ApplyResult end = state.apply(Event{OutageEnd{"B"}});
  EXPECT_EQ(end.invalidated, 4u);
  EXPECT_EQ(end.values_recomputed, 0u);
  EXPECT_EQ(raw_table_bits(state), before);
  expect_same_answer(state.query(), replayed(state));
}

// Events on other slots inside A's outage window change the states the
// masks holding A are keyed under. A's outage-end recomputes exactly the
// masks of the lattice that no epoch computed with A nominal and the
// other members in their current states, and every epoch answers like a
// fresh replay of its prefix.
TEST(ServeStateTest, OutageEndRecomputesOnlyTheMasksTheMemoLacks) {
  struct Window {
    const char* what;
    std::vector<Event> events;
    std::size_t recomputed;  // at A's outage-end
  };
  const std::vector<Window> windows = {
      // B is nominal again: the memo kept {A,B} and {A,B,C} under B's
      // nominal id.
      {"flap of B", {Event{OutageStart{"B", 3, 0}}, Event{OutageEnd{"B"}}},
       0},
      // No epoch computed {A,B} or {A,B,C} with A nominal and B down.
      {"B still down", {Event{OutageStart{"B", 3, 0}}}, 2},
      // The masks that held C left the lattice with it.
      {"leave of C", {Event{FacilityLeave{"C"}}}, 0},
      // No epoch computed the four masks with D with A nominal.
      {"join of D", {join_event("D", 2, 1.0, 0.7)}, 4},
      // The demand update cleared the memo.
      {"demand", {demand_event(4.0, 2.0)}, 4},
  };
  for (const Window& window : windows) {
    SCOPED_TRACE(window.what);
    ServiceState state;
    assemble_two_class(state);
    (void)state.apply(Event{OutageStart{"A", 5, 1}});
    for (const Event& event : window.events) {
      (void)state.apply(event);
      expect_same_answer(state.query(), replayed(state));
    }
    const ApplyResult end = state.apply(Event{OutageEnd{"A"}});
    EXPECT_EQ(end.values_recomputed, window.recomputed);
    expect_same_answer(state.query(), replayed(state));
  }
}

// Sets the pool's thread count for one scope.
struct ThreadCount {
  explicit ThreadCount(int n) { fedshare::exec::set_threads(n); }
  ~ThreadCount() { fedshare::exec::set_threads(1); }
  ThreadCount(const ThreadCount&) = delete;
  ThreadCount& operator=(const ThreadCount&) = delete;
};

// The published table against V(S) computed afresh on the snapshot's
// effective space and closed, bit for bit. A replay repeats the run's
// history, memo hits included, so this is the check that a value the
// memo served belongs to the members' current configs.
void expect_fresh_table(const ServiceState& state) {
  const auto snap = state.snapshot();
  ASSERT_TRUE(snap->game.has_value());
  std::vector<double> values(snap->game->values().size(), 0.0);
  for (std::uint64_t mask = 1; mask < values.size(); ++mask) {
    values[mask] = fedshare::model::coalition_value(
        snap->space, snap->demand,
        fedshare::game::Coalition::from_bits(mask));
  }
  fedshare::game::close_monotone(
      fedshare::game::identity_index(snap->answer.num_facilities), values);
  for (std::size_t mask = 1; mask < values.size(); ++mask) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(snap->game->values()[mask]),
              std::bit_cast<std::uint64_t>(values[mask]))
        << "mask " << mask;
  }
}

// Applies `event`, checks that the epoch answers bitwise like a fresh
// replay of the state's log and that its table is V(S) computed afresh,
// and returns the V(S) it recomputed.
std::size_t apply_checked(ServiceState& state, const Event& event) {
  const ApplyResult r = state.apply(event);
  EXPECT_TRUE(r.complete);
  SCOPED_TRACE(fedshare::serve::format_event(event));
  expect_same_answer(state.query(), replayed(state));
  expect_fresh_table(state);
  return r.values_recomputed;
}

// An outage draw seen before, with other facilities flapped in between,
// takes every value from the memo.
void revisited_draw_recomputes_nothing() {
  ServiceState state;
  assemble_two_class(state);
  const Event start_b{OutageStart{"B", 3, 0}};
  const Event end_b{OutageEnd{"B"}};
  EXPECT_EQ(apply_checked(state, start_b), 4u);  // a new state of B
  EXPECT_EQ(apply_checked(state, end_b), 0u);
  EXPECT_EQ(apply_checked(state, Event{OutageStart{"A", 5, 1}}), 4u);
  EXPECT_EQ(apply_checked(state, Event{OutageEnd{"A"}}), 0u);
  EXPECT_EQ(apply_checked(state, Event{OutageStart{"C", 2, 0}}), 4u);
  EXPECT_EQ(apply_checked(state, Event{OutageEnd{"C"}}), 0u);
  const ApplyResult revisit = state.apply(start_b);
  EXPECT_EQ(revisit.invalidated, 4u);  // invalidated, then refilled
  EXPECT_EQ(revisit.values_recomputed, 0u);
  expect_same_answer(state.query(), replayed(state));
  expect_fresh_table(state);
  EXPECT_EQ(apply_checked(state, end_b), 0u);
}

// The surviving locations B's draw (seed, scenario) leaves up.
std::vector<bool> survivors_of_b(std::uint64_t seed, std::uint64_t scenario) {
  ServiceState probe;
  assemble_two_class(probe);
  (void)probe.apply(Event{OutageStart{"B", seed, scenario}});
  return probe.checkpoint_image().roster.at(1).up;
}

// Two draws that realise the same units share their entries: the same
// survivors from another (seed, scenario), and other survivors of the
// same count (B's locations all hold 1 unit).
void equal_outages_share_entries() {
  const std::vector<bool> first = survivors_of_b(3, 0);
  std::optional<std::pair<std::uint64_t, std::uint64_t>> same;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> moved;
  for (std::uint64_t seed = 4; seed < 200 && !(same && moved); ++seed) {
    for (std::uint64_t scenario = 0; scenario < 4; ++scenario) {
      const std::vector<bool> up = survivors_of_b(seed, scenario);
      if (up == first) {
        if (!same) same.emplace(seed, scenario);
      } else if (std::count(up.begin(), up.end(), true) ==
                 std::count(first.begin(), first.end(), true)) {
        if (!moved) moved.emplace(seed, scenario);
      }
    }
  }
  ASSERT_TRUE(same.has_value());
  ASSERT_TRUE(moved.has_value()) << "B's draws always keep the same locations";

  ServiceState state;
  assemble_two_class(state);
  EXPECT_EQ(apply_checked(state, Event{OutageStart{"B", 3, 0}}), 4u);
  EXPECT_EQ(apply_checked(state, Event{OutageEnd{"B"}}), 0u);
  EXPECT_EQ(
      apply_checked(state, Event{OutageStart{"B", same->first, same->second}}),
      0u);
  EXPECT_EQ(apply_checked(state, Event{OutageEnd{"B"}}), 0u);
  EXPECT_EQ(apply_checked(
                state, Event{OutageStart{"B", moved->first, moved->second}}),
            0u);
  EXPECT_EQ(apply_checked(state, Event{OutageEnd{"B"}}), 0u);
}

// A leave ends the slot's tenure. A joiner with another config under
// the same name takes the same slot; neither its masks nor its first
// outage find an entry of the leaver's.
void rejoined_slot_recomputes_its_masks() {
  ServiceState state;
  assemble_two_class(state);
  const Event start_a{OutageStart{"A", 5, 1}};
  EXPECT_EQ(apply_checked(state, start_a), 4u);
  EXPECT_EQ(apply_checked(state, Event{OutageEnd{"A"}}), 0u);
  EXPECT_EQ(apply_checked(state, Event{FacilityLeave{"A"}}), 0u);
  EXPECT_EQ(apply_checked(state, join_event("A", 3, 1.0, 0.6)), 4u);
  EXPECT_EQ(state.snapshot()->slots.front(), 0);  // A's old slot
  EXPECT_EQ(apply_checked(state, start_a), 4u);
  EXPECT_EQ(apply_checked(state, Event{OutageEnd{"A"}}), 0u);
  EXPECT_EQ(apply_checked(state, start_a), 0u);  // the joiner's own entry
}

// A demand update changes every value: nothing filed before it is used.
void demand_update_clears_the_memo() {
  ServiceState state;
  assemble_two_class(state);
  const Event start_b{OutageStart{"B", 3, 0}};
  EXPECT_EQ(apply_checked(state, start_b), 4u);
  EXPECT_EQ(apply_checked(state, Event{OutageEnd{"B"}}), 0u);
  EXPECT_EQ(apply_checked(state, demand_event(4.0, 2.0)), 7u);
  EXPECT_EQ(apply_checked(state, start_b), 4u);
  EXPECT_EQ(apply_checked(state, Event{OutageEnd{"B"}}), 0u);
}

// A state restored under an outage starts with an empty memo but knows
// the outage it restored: once its run has computed a draw's values, a
// revisit is served from the memo, and every epoch equals the uncrashed
// run's.
void restored_revisit_answers_like_the_uncrashed_run() {
  const Event start_b{OutageStart{"B", 3, 0}};
  const Event end_b{OutageEnd{"B"}};
  ServiceState uncrashed;
  assemble_two_class(uncrashed);
  (void)uncrashed.apply(start_b);
  (void)uncrashed.apply(end_b);
  (void)uncrashed.apply(start_b);
  ServiceState restored;
  restored.restore(uncrashed.checkpoint_image());

  const std::vector<Event> script = {
      end_b, start_b, end_b, Event{OutageStart{"A", 5, 1}},
      Event{OutageEnd{"A"}}, start_b};
  // What each event recomputes after the restore, and in the uncrashed
  // run, whose memo holds B's draw and nominal slice. The restored run
  // files only what it computes: A's outage-end finds {A,B} and {A,B,C}
  // from B's outage-end, not {A} and {A,C}.
  const std::vector<std::size_t> restored_counts = {4, 4, 0, 4, 2, 0};
  const std::vector<std::size_t> uncrashed_counts = {0, 0, 0, 4, 0, 0};
  for (std::size_t k = 0; k < script.size(); ++k) {
    SCOPED_TRACE("event " + std::to_string(k));
    EXPECT_EQ(restored.apply(script[k]).values_recomputed,
              restored_counts[k]);
    EXPECT_EQ(apply_checked(uncrashed, script[k]), uncrashed_counts[k]);
    EXPECT_EQ(restored.query().epoch, uncrashed.query().epoch);
    expect_same_answer(restored.query(), uncrashed.query());
    expect_fresh_table(restored);
  }
}

TEST(ServeStateTest, ValueMemoRevisitedDrawRecomputesNothing) {
  revisited_draw_recomputes_nothing();
}

TEST(ServeStateTest, ValueMemoEqualOutagesShareEntries) {
  equal_outages_share_entries();
}

TEST(ServeStateTest, ValueMemoRejoinedSlotRecomputesItsMasks) {
  rejoined_slot_recomputes_its_masks();
}

TEST(ServeStateTest, ValueMemoDemandUpdateClearsIt) {
  demand_update_clears_the_memo();
}

TEST(ServeStateTest, ValueMemoRestoredRevisitAnswersLikeTheUncrashedRun) {
  restored_revisit_answers_like_the_uncrashed_run();
}

// Every case above with the tabulation on four pool threads (run under
// TSan by CI): the memo is filled on the applying thread, after the
// parallel tabulation, so the counts and the bits are the same.
TEST(ServeStateTest, ValueMemoCasesFourThreads) {
  const ThreadCount threads(4);
  revisited_draw_recomputes_nothing();
  equal_outages_share_entries();
  rejoined_slot_recomputes_its_masks();
  demand_update_clears_the_memo();
  restored_revisit_answers_like_the_uncrashed_run();
}

// The snapshot-consistency certificate (run under TSan by
// tools/check.sh): readers hammer query() while a writer churns the
// roster. Every answer must be internally consistent — all vectors
// sized to the same roster, the answered epoch never ahead of the
// current one — because a query only ever sees one published snapshot,
// never a half-updated epoch.
TEST(ServeStateTest, ConcurrentReadersSeeConsistentSnapshots) {
  ServiceState state;
  (void)state.apply(demand_event(6.0, 2.0));

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&state, &done, &violations] {
      while (!done.load(std::memory_order_acquire)) {
        const auto answer = state.query();
        const auto n = static_cast<std::size_t>(answer.num_facilities);
        bool ok = answer.names.size() == n &&
                  answer.standalone.size() == n &&
                  answer.epoch <= answer.current_epoch;
        for (const auto& outcome : answer.outcomes) {
          ok = ok && outcome.shares.size() == n &&
               outcome.payoffs.size() == n;
        }
        if (!ok) violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t round = 0; round < 8; ++round) {
    (void)state.apply(join_event("A", 2, 1.0, 1.0));
    (void)state.apply(join_event("B", 2, 1.0, 0.8));
    (void)state.apply(Event{OutageStart{"A", round + 1, 0}});
    (void)state.apply(Event{OutageEnd{"A"}});
    (void)state.apply(Event{FacilityLeave{"B"}});
    (void)state.apply(Event{FacilityLeave{"A"}});
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(state.epoch(), 1u + 8u * 6u);
}

// --- CLI serve runner ----------------------------------------------------

TEST(ServeRunnerTest, RendersEventLogAnswerAndStats) {
  const std::string events =
      "demand count=6,min_locations=2\n"
      "join name=A locations=3 units=2 availability=0.9\n"
      "join name=B locations=2 units=1 availability=0.8\n"
      "outage-start name=A seed=7 scenario=1\n"
      "outage-end name=A\n";
  const auto result = serve_from_string(events);
  EXPECT_FALSE(result.degraded);
  EXPECT_FALSE(result.error.has_value());
  EXPECT_NE(result.text.find("Event log"), std::string::npos);
  EXPECT_NE(result.text.find("Service answer (epoch 5)"), std::string::npos);
  EXPECT_NE(result.text.find("Service stats"), std::string::npos);
  EXPECT_NE(result.text.find("shapley"), std::string::npos);
  EXPECT_EQ(result.text.find("STALE"), std::string::npos);
  // Deterministic: the same file renders the same bytes.
  EXPECT_EQ(serve_from_string(events).text, result.text);
}

TEST(ServeRunnerTest, SemanticallyInvalidEventStopsTheRunWithError) {
  const std::string events =
      "join name=A locations=2\n"
      "leave name=NOPE\n"
      "join name=B locations=2\n";
  const auto result = serve_from_string(events);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_NE(result.error->find("NOPE"), std::string::npos);
  // The run stopped at the invalid event: B never joined.
  EXPECT_NE(result.text.find("epoch 1"), std::string::npos);
  EXPECT_EQ(result.text.find("epoch 2"), std::string::npos);
}

TEST(ServeRunnerTest, MalformedEventFileThrows) {
  EXPECT_THROW((void)serve_from_string("bogus line\n"),
               ServeError);
}

}  // namespace
