// Heap-allocation regression guard for the kernels that run many times
// per report: the V(S) greedy behind a 2^n tabulation, the started
// dense LP chain of the nucleolus, and the table scans that read a
// tabulated game in place (the property checks and the dividends);
// for one whole default report; and for one serve outage flap.
//
// This binary replaces the global operator new with one that counts its
// calls, warms each kernel up once (so the per-thread greedy scratch and
// lazily built statics are in place), and then asserts an upper bound on
// the allocations of one more run. The bounds are the counts measured
// once the kernels stopped allocating per call (tabulation: 19, the
// table and build_game's other fixed costs, none per mask, since V(S)
// fills its histogram and keeps its per-class outcomes in the greedy's
// per-thread scratch; it made 164 while each V(S) allocated both;
// nucleolus:
// 185, with one dense-LP workspace per chain, the release pass and the
// probe problem rebuilt in place, each working row stored once and the
// all-singletons orbit index built once per n), rounded up to the next
// ten so that another standard library's growth policy does not trip
// them. The code before the workspace change made 908 and 515 here, and
// the nucleolus made 244 before the probe problem and the index stopped
// being rebuilt per call, so the guard fails on either, as it will on a
// change that puts heap churn back into these loops. Raise a
// bound only together with a note on what the new allocations buy.
// The table scans have exact counts: the property checks allocate
// nothing, and the dividends allocate their result only. Code that
// copied the 2^n table made 3 and 2 allocations there.
// One whole default report of the banded config (federation, table,
// every scheme and the rendered text) is bounded the same way: 315
// allocations with the report appended to one string, each table's
// cells in one arena and an allocation-free V(S), so 320. The report
// made 618 while it went through an ostringstream with a std::string
// per table cell and per label, and 460 while each V(S) allocated.
// One warm outage flap of the serve roster (an outage-start and an
// outage-end that both refill the facility's 32 masks from the V(S)
// memo, replace the one facility in the effective space, evaluate the
// closed-form bound and publish from the answer memo) makes 116, so 120.
// It made 173 while the outage-start re-tabulated the 32 masks and each
// epoch rebuilt the whole effective space, 183 while the bound was a
// warm LP re-solve, and 559 while each V(S) allocated, the bound engine
// was copy-constructed per epoch and the outage mask was drawn from a
// whole nominal space.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "cli/runner.hpp"
#include "core/dividends.hpp"
#include "core/game.hpp"
#include "core/nucleolus.hpp"
#include "core/properties.hpp"
#include "exec/pool.hpp"
#include "io/config.hpp"
#include "model/federation.hpp"
#include "serve/event.hpp"
#include "serve/state.hpp"

// Every plain, array and nothrow form of operator new and delete is
// replaced, so that each allocation is counted and every pair of new and
// delete lands on malloc and free (a sanitizer that intercepts only some
// forms would otherwise see a mismatch).
namespace {

std::atomic<std::uint64_t> g_allocations{0};

constexpr std::uint64_t kTabulationBound = 20;
constexpr std::uint64_t kNucleolusBound = 190;
constexpr std::uint64_t kReportBound = 320;
constexpr std::uint64_t kServeFlapBound = 120;

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Every delete releases through this one out-of-line function, so the
// compiler never sees free() or a plain delete next to a new-expression
// of another form and warns of a mismatch this replacement makes valid.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace fedshare {
namespace {

// Six distinct facilities on bands of [100, 1000] with units alternating
// 1 and 2, under the default report's two demand classes: the shape of
// the end-to-end report benchmark's configs.
std::string banded_config_text() {
  const int locations[] = {168, 331, 462, 617, 790, 934};
  std::string text;
  for (int i = 0; i < 6; ++i) {
    text += "[facility]\nname = F" + std::to_string(i) +
            "\nlocations = " + std::to_string(locations[i]) +
            "\nunits = " + std::to_string(i % 2 + 1) + "\n\n";
  }
  return text +
         "[demand]\ncount = 20\nmin_locations = 300\n\n"
         "[demand]\ncount = 5\nmin_locations = 900\nexponent = 1.2\n";
}

model::Federation banded_federation() {
  return cli::federation_from_config(
      io::Config::parse_string(banded_config_text()));
}

template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

// A fresh federation's table: 63 greedy runs behind a cold memo.
TEST(AllocGuard, BandedSixFacilityTabulation) {
  exec::set_threads(1);
  const model::Federation warm = banded_federation();
  (void)warm.build_game();
  const model::Federation fed = banded_federation();
  std::uint64_t count = 0;
  const std::uint64_t allocations = allocations_of([&] {
    count = fed.build_game().values().size();
  });
  ASSERT_EQ(count, 64u);
  RecordProperty("allocations", std::to_string(allocations));
  std::cout << "tabulation: " << allocations << " allocations\n";
  EXPECT_LE(allocations, kTabulationBound);
}

TEST(AllocGuard, NucleolusOfTheBandedTable) {
  exec::set_threads(1);
  const game::TabularGame g = banded_federation().build_game();
  (void)game::nucleolus(g, {});
  game::NucleolusResult r;
  const std::uint64_t allocations =
      allocations_of([&] { r = game::nucleolus(g, {}); });
  ASSERT_TRUE(r.solved);
  RecordProperty("allocations", std::to_string(allocations));
  std::cout << "nucleolus: " << allocations << " allocations, "
            << r.lps_solved << " LPs\n";
  EXPECT_LE(allocations, kNucleolusBound);
}

// The report's property checks on its own table: three scans, no copy.
TEST(AllocGuard, PropertiesOfTheBandedTable) {
  exec::set_threads(1);
  const game::TabularGame g = banded_federation().build_game();
  game::PropertyReport r = game::analyze_properties(g);
  const std::uint64_t allocations =
      allocations_of([&] { r = game::analyze_properties(g); });
  std::cout << "properties: " << allocations << " allocations\n";
  EXPECT_TRUE(r.monotone);
  EXPECT_EQ(allocations, 0u);
}

// The dividends transform the table in their result, the one allocation.
TEST(AllocGuard, DividendsOfTheBandedTable) {
  exec::set_threads(1);
  const game::TabularGame g = banded_federation().build_game();
  std::vector<double> d = game::harsanyi_dividends(g);
  const std::uint64_t allocations =
      allocations_of([&] { d = game::harsanyi_dividends(g); });
  std::cout << "dividends: " << allocations << " allocations\n";
  ASSERT_EQ(d.size(), g.values().size());
  EXPECT_EQ(allocations, 1u);
}

// One default report of the banded config, end to end: the federation,
// its table, every scheme and the rendered text.
TEST(AllocGuard, DefaultReportOfTheBandedConfig) {
  exec::set_threads(1);
  const io::Config config = io::Config::parse_string(banded_config_text());
  cli::ReportResult r = cli::run_report_result(config, {});
  const std::uint64_t allocations =
      allocations_of([&] { r = cli::run_report_result(config, {}); });
  ASSERT_FALSE(r.degraded());
  RecordProperty("allocations", std::to_string(allocations));
  std::cout << "report: " << allocations << " allocations, "
            << r.text.size() << " bytes\n";
  EXPECT_LE(allocations, kReportBound);
}

// The serve_flap roster of perfbench: six facilities of 4 to 6
// locations at fractional capacities under two request classes.
std::vector<serve::Event> serve_roster() {
  serve::DemandUpdate demand;
  demand.demand = model::DemandProfile::uniform(8.0, 6.0);
  model::RequestClass second;
  second.count = 3.0;
  second.min_locations = 2.0;
  second.units_per_location = 2.0;
  demand.demand.classes.push_back(second);
  std::vector<serve::Event> events;
  events.emplace_back(std::move(demand));
  for (int i = 0; i < 6; ++i) {
    serve::FacilityJoin join;
    join.config.name = "F" + std::to_string(i);
    join.config.num_locations = 4 + i % 3;
    join.config.units_per_location = 1.0 + 0.5 * (i % 2);
    join.config.availability = 0.9 - 0.05 * i;
    events.emplace_back(std::move(join));
  }
  return events;
}

// One warm outage flap on the serve roster, after the same flap once:
// the outage-start and the outage-end both refill the facility's 32
// masks from the V(S) memo, and each evaluates the bound and publishes
// from the answer memo.
TEST(AllocGuard, ServeOutageFlap) {
  exec::set_threads(1);
  serve::ServiceState state;
  for (const serve::Event& event : serve_roster()) {
    ASSERT_TRUE(state.apply(event).complete);
  }
  const serve::Event start = serve::OutageStart{"F2", 1, 0};
  const serve::Event end = serve::OutageEnd{"F2"};
  (void)state.apply(start);
  (void)state.apply(end);
  bool complete = false;
  const std::uint64_t allocations = allocations_of([&] {
    complete = state.apply(start).complete && state.apply(end).complete;
  });
  ASSERT_TRUE(complete);
  RecordProperty("allocations", std::to_string(allocations));
  std::cout << "serve flap: " << allocations << " allocations\n";
  EXPECT_LE(allocations, kServeFlapBound);
}

}  // namespace
}  // namespace fedshare
