// Bitwise V(S) of the serve roster under every outage draw.
//
// The roster is perfbench's serve_flap roster: six facilities of 4 to 6
// locations at 1 or 1.5 units and availabilities 0.9 down to 0.65, so
// every pooled capacity that is not under outage is fractional, under
// two request classes. For the outage-free roster and for each outage
// draw (facility F0..F5 x seed 1..4 x scenario 0..3) the service's
// effective space is read from its snapshot, and two tables are written
// in hexadecimal floating point, over compact masks 1..63 ascending:
// the raw greedy V(S) (model::coalition_value) and the published closed
// table. tests/fixtures/serve_roster_values.txt holds the lines an
// earlier build wrote; the values must match it bit for bit. Every draw
// is applied twice: the second pass revisits states whose V(S) the
// service memoised in the first, recomputes none, and must match the
// fixture too.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/value.hpp"
#include "serve/event.hpp"
#include "serve/state.hpp"

#ifndef FEDSHARE_SOURCE_DIR
#error "tests/CMakeLists.txt must define FEDSHARE_SOURCE_DIR"
#endif

namespace {

using namespace fedshare;

constexpr int kRoster = 6;

std::vector<serve::Event> roster_events() {
  serve::DemandUpdate demand;
  demand.demand = model::DemandProfile::uniform(8.0, 6.0);
  model::RequestClass second;
  second.count = 3.0;
  second.min_locations = 2.0;
  second.units_per_location = 2.0;
  demand.demand.classes.push_back(second);
  std::vector<serve::Event> events;
  events.emplace_back(std::move(demand));
  for (int i = 0; i < kRoster; ++i) {
    serve::FacilityJoin join;
    join.config.name = "F" + std::to_string(i);
    join.config.num_locations = 4 + i % 3;
    join.config.units_per_location = 1.0 + 0.5 * (i % 2);
    join.config.availability = 0.9 - 0.05 * i;
    events.emplace_back(std::move(join));
  }
  return events;
}

void append_table(std::string& out, const char* tag,
                  const std::vector<double>& values) {
  out += tag;
  char buffer[64];
  for (std::size_t mask = 1; mask < values.size(); ++mask) {
    std::snprintf(buffer, sizeof buffer, " %a", values[mask]);
    out += buffer;
  }
  out += '\n';
}

// The raw and the closed table of the state's current snapshot.
void append_snapshot(std::string& out, const std::string& label,
                     const serve::ServiceState& state) {
  const auto snap = state.snapshot();
  std::vector<double> raw(std::size_t{1} << kRoster, 0.0);
  for (std::uint64_t mask = 1; mask < raw.size(); ++mask) {
    raw[mask] = model::coalition_value(snap->space, snap->demand,
                                       game::Coalition::from_bits(mask));
  }
  out += label + "\n";
  append_table(out, "raw", raw);
  append_table(out, "closed", snap->game->values());
}

// One dump per pass over every draw; `recomputed` gets the V(S) each
// pass recomputed.
std::vector<std::string> roster_value_dumps(
    int passes, std::vector<std::size_t>& recomputed) {
  serve::ServiceState state;
  for (const serve::Event& event : roster_events()) (void)state.apply(event);
  std::vector<std::string> dumps;
  for (int pass = 0; pass < passes; ++pass) {
    std::string out;
    std::size_t values = 0;
    append_snapshot(out, "no outage", state);
    for (int facility = 0; facility < kRoster; ++facility) {
      const std::string name = "F" + std::to_string(facility);
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (std::uint64_t scenario = 0; scenario <= 3; ++scenario) {
          values += state.apply(serve::OutageStart{name, seed, scenario})
                        .values_recomputed;
          append_snapshot(out,
                          "outage " + name + " seed " + std::to_string(seed) +
                              " scenario " + std::to_string(scenario),
                          state);
          values += state.apply(serve::OutageEnd{name}).values_recomputed;
        }
      }
    }
    dumps.push_back(std::move(out));
    recomputed.push_back(values);
  }
  return dumps;
}

void expect_matches_fixture(const std::string& got, const std::string& want) {
  std::istringstream got_lines(got);
  std::istringstream want_lines(want);
  std::string g;
  std::string w;
  int line = 0;
  while (std::getline(want_lines, w)) {
    ++line;
    ASSERT_TRUE(std::getline(got_lines, g)) << "dump ends before line " << line;
    ASSERT_EQ(g, w) << "line " << line;
  }
  EXPECT_FALSE(std::getline(got_lines, g)) << "dump runs past the fixture";
  EXPECT_EQ(line, 3 * (1 + kRoster * 4 * 4));  // label, raw, closed
}

TEST(ServeRosterValues, MatchTheFixtureBitwise) {
  std::ifstream in(std::string(FEDSHARE_SOURCE_DIR) +
                   "/tests/fixtures/serve_roster_values.txt");
  ASSERT_TRUE(in) << "missing tests/fixtures/serve_roster_values.txt";
  std::stringstream want;
  want << in.rdbuf();
  std::vector<std::size_t> recomputed;
  const std::vector<std::string> dumps = roster_value_dumps(2, recomputed);
  for (std::size_t pass = 0; pass < dumps.size(); ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass + 1));
    expect_matches_fixture(dumps[pass], want.str());
  }
  EXPECT_GT(recomputed[0], 0u);
  EXPECT_EQ(recomputed[1], 0u);  // every value came from the memo
}

}  // namespace
