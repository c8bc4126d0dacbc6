// Tests for the exec subsystem: deterministic parallel execution
// (pool.hpp) and the flat coalition-value memo (value_cache.hpp),
// plus the determinism contract of the parallel consumers — tabulation,
// Monte-Carlo Shapley, and outage sweeps must be bit-identical at any
// thread count.
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/game.hpp"
#include "core/shapley.hpp"
#include "core/symmetry.hpp"
#include "exec/pool.hpp"
#include "exec/value_cache.hpp"
#include "model/demand.hpp"
#include "model/federation.hpp"
#include "model/location_space.hpp"
#include "runtime/budget.hpp"
#include "runtime/outage.hpp"

namespace {

using fedshare::exec::ChunkRange;
using fedshare::exec::ValueCache;
using fedshare::game::Coalition;
using fedshare::game::FunctionGame;
using fedshare::game::TabularGame;
using fedshare::runtime::ComputeBudget;

// Every test must leave the global executor serial so the rest of the
// suite (and the byte-identity contract) is unaffected.
class ExecTest : public ::testing::Test {
 protected:
  void TearDown() override { fedshare::exec::set_threads(1); }
};

// A deterministic, mildly expensive characteristic function.
FunctionGame make_game(int n) {
  return FunctionGame(n, [](Coalition c) {
    double v = 0.0;
    for (const int i : c.members()) {
      v += std::sqrt(static_cast<double>(i) + 1.5);
    }
    return v * v;
  });
}

fedshare::model::Federation make_federation() {
  auto space = fedshare::model::LocationSpace::disjoint(
      {{"A", 8, 2, 0.7}, {"B", 6, 3, 0.8}, {"C", 10, 1, 0.9}});
  return fedshare::model::Federation(
      std::move(space), fedshare::model::DemandProfile::uniform(4, 6));
}

// --- pool ----------------------------------------------------------------

TEST_F(ExecTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    fedshare::exec::set_threads(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    const bool done = fedshare::exec::parallel_for(
        0, hits.size(), 7, [&](const ChunkRange& r) {
          for (std::uint64_t i = r.begin; i < r.end; ++i) {
            hits[i].fetch_add(1);
          }
          return true;
        });
    EXPECT_TRUE(done);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST_F(ExecTest, ChunkDecompositionIsFixed) {
  // The (begin, end, index) triples must not depend on the thread
  // count: collect them per index slot and compare.
  auto collect = [](int threads) {
    fedshare::exec::set_threads(threads);
    std::vector<ChunkRange> chunks(8, ChunkRange{0, 0, 0});
    fedshare::exec::parallel_for(3, 61, 8, [&](const ChunkRange& r) {
      chunks[r.index] = r;
      return true;
    });
    return chunks;
  };
  const auto serial = collect(1);
  const auto parallel = collect(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].begin, parallel[i].begin);
    EXPECT_EQ(serial[i].end, parallel[i].end);
    EXPECT_EQ(serial[i].index, parallel[i].index);
  }
}

TEST_F(ExecTest, CancellationStopsOutstandingChunks) {
  fedshare::exec::set_threads(4);
  std::atomic<int> executed{0};
  const bool done =
      fedshare::exec::parallel_for(0, 1000, 1, [&](const ChunkRange& r) {
        executed.fetch_add(1);
        return r.index < 3;  // cancel once chunk 3 or later runs
      });
  EXPECT_FALSE(done);
  // Cooperative cancellation: far fewer than all 1000 chunks ran.
  EXPECT_LT(executed.load(), 1000);
}

TEST_F(ExecTest, ExceptionsPropagateFromWorkers) {
  fedshare::exec::set_threads(4);
  EXPECT_THROW(
      fedshare::exec::parallel_for(0, 100, 1,
                                   [&](const ChunkRange& r) {
                                     if (r.index == 5) {
                                       throw std::runtime_error("boom");
                                     }
                                     return true;
                                   }),
      std::runtime_error);
}

TEST_F(ExecTest, NestedParallelForDegradesInline) {
  fedshare::exec::set_threads(4);
  std::atomic<int> inner_total{0};
  const bool done =
      fedshare::exec::parallel_for(0, 8, 1, [&](const ChunkRange&) {
        // Nested entry must run inline (no deadlock, no new workers).
        return fedshare::exec::parallel_for(
            0, 4, 1, [&](const ChunkRange&) {
              inner_total.fetch_add(1);
              return true;
            });
      });
  EXPECT_TRUE(done);
  EXPECT_EQ(inner_total.load(), 32);
}

// --- budget integration --------------------------------------------------

TEST_F(ExecTest, BudgetedDeadlineCancelsWholeJob) {
  fedshare::exec::set_threads(4);
  const ComputeBudget budget = ComputeBudget::with_deadline_ms(0.0);
  std::atomic<int> executed{0};
  const bool done = fedshare::exec::parallel_for_budgeted(
      0, 1000, 1, budget,
      [&](const ChunkRange&, const ComputeBudget& b) {
        executed.fetch_add(1);
        return b.charge();
      });
  EXPECT_FALSE(done);
  EXPECT_LT(executed.load(), 1000);
}

TEST_F(ExecTest, BudgetedForkReconcilesNodeUsageIntoParent) {
  for (const int threads : {1, 4}) {
    fedshare::exec::set_threads(threads);
    const ComputeBudget parent = ComputeBudget().cap_nodes(1000);
    const bool done = fedshare::exec::parallel_for_budgeted(
        0, 10, 1, parent,
        [&](const ChunkRange&, const ComputeBudget& b) {
          return b.charge(5);
        });
    EXPECT_TRUE(done);
    // 10 chunks x 5 units, visible on the parent after the join.
    EXPECT_EQ(parent.used(), 50u);
  }
}

TEST_F(ExecTest, BudgetedNodeCapTripsAtAnyThreadCount) {
  for (const int threads : {1, 4}) {
    fedshare::exec::set_threads(threads);
    const ComputeBudget parent = ComputeBudget().cap_nodes(10);
    const bool done = fedshare::exec::parallel_for_budgeted(
        0, 100, 1, parent,
        [&](const ChunkRange&, const ComputeBudget& b) {
          return b.charge(1);
        });
    EXPECT_FALSE(done) << "threads=" << threads;
  }
}

// --- value cache ---------------------------------------------------------

TEST_F(ExecTest, ValueCacheComputesOncePerMask) {
  ValueCache cache(64);
  std::atomic<int> computes{0};
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t mask = 1; mask <= 32; ++mask) {
      const double v = cache.value_or_compute(mask, [&] {
        computes.fetch_add(1);
        return static_cast<double>(mask) * 1.5;
      });
      EXPECT_EQ(v, static_cast<double>(mask) * 1.5);
    }
  }
  EXPECT_EQ(computes.load(), 32);
  EXPECT_EQ(cache.size(), 32u);
  EXPECT_EQ(cache.misses(), 32u);
  EXPECT_EQ(cache.hits(), 64u);
  EXPECT_NEAR(cache.stats().hit_rate(), 64.0 / 96.0, 1e-12);
}

TEST_F(ExecTest, ValueCacheBudgetedHitIsFreeMissCharges) {
  ValueCache cache(16);
  const ComputeBudget budget = ComputeBudget().cap_nodes(1);
  // Miss: charges one unit.
  auto v = cache.value_or_compute_budgeted(7, budget, [] { return 3.0; });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(budget.used(), 1u);
  // Hit: free even though the cap is spent.
  v = cache.value_or_compute_budgeted(7, budget, [] { return -1.0; });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 3.0);
  EXPECT_EQ(budget.used(), 1u);
  // Second distinct mask: cap of 1 is exhausted.
  v = cache.value_or_compute_budgeted(8, budget, [] { return 9.0; });
  EXPECT_FALSE(v.has_value());
}

TEST_F(ExecTest, ValueCacheSurvivesConcurrentMixedReadersAndWriters) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kMasks = 512;
  ValueCache cache(kMasks);
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kMasks; ++i) {
        // Interleave orders per thread so readers race writers.
        const std::uint64_t mask = (t % 2 == 0) ? i : kMasks - 1 - i;
        const double v = cache.value_or_compute(
            mask, [&] { return static_cast<double>(mask * 3 + 1); });
        if (v != static_cast<double>(mask * 3 + 1)) mismatch.store(true);
        if (const auto peek = cache.lookup(mask)) {
          if (*peek != static_cast<double>(mask * 3 + 1)) {
            mismatch.store(true);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(cache.size(), kMasks);
}

// --- consumers: bit-equality across thread counts ------------------------

TEST_F(ExecTest, TabulationIsBitIdenticalAcrossThreadCounts) {
  const FunctionGame g = make_game(10);
  fedshare::exec::set_threads(1);
  const TabularGame serial = fedshare::game::tabulate(g);
  for (const int threads : {2, 4}) {
    fedshare::exec::set_threads(threads);
    const TabularGame parallel = fedshare::game::tabulate(g);
    EXPECT_EQ(serial.values(), parallel.values()) << "threads=" << threads;
  }
}

TEST_F(ExecTest, TabulateReturnsTabularInputUnchanged) {
  const TabularGame tab = fedshare::game::tabulate(make_game(6));
  const TabularGame again = fedshare::game::tabulate(tab);
  EXPECT_EQ(tab.values(), again.values());
}

TEST_F(ExecTest, TabulateBudgetedIsFreeForTabularGames) {
  const TabularGame tab = fedshare::game::tabulate(make_game(6));
  const ComputeBudget budget = ComputeBudget().cap_nodes(0);
  // Re-reads of materialised values charge nothing (charging rule).
  const auto again = fedshare::game::tabulate_budgeted(tab, budget);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->values(), tab.values());
  EXPECT_EQ(budget.used(), 0u);
}

TEST_F(ExecTest, TabulateBudgetedChargesOncePerDistinctCoalition) {
  fedshare::exec::set_threads(1);
  const FunctionGame g = make_game(5);
  // The identity quotient memoises one orbit per coalition.
  const fedshare::game::QuotientGame cached(
      g, fedshare::game::PlayerPartition::identity(5));
  const ComputeBudget first = ComputeBudget().cap_nodes(1u << 5);
  ASSERT_TRUE(fedshare::game::tabulate_budgeted(cached, first).has_value());
  EXPECT_EQ(first.used(), 32u);
  // Second tabulation hits the cache for every mask: zero charge.
  const ComputeBudget second = ComputeBudget().cap_nodes(0);
  ASSERT_TRUE(
      fedshare::game::tabulate_budgeted(cached, second).has_value());
  EXPECT_EQ(second.used(), 0u);
}

TEST_F(ExecTest, MonteCarloShapleyIsBitIdenticalAcrossThreadCounts) {
  const FunctionGame g = make_game(8);
  fedshare::exec::set_threads(1);
  const auto serial = fedshare::game::shapley_monte_carlo(g, 200, 42);
  for (const int threads : {2, 4}) {
    fedshare::exec::set_threads(threads);
    const auto parallel = fedshare::game::shapley_monte_carlo(g, 200, 42);
    EXPECT_EQ(serial.phi, parallel.phi) << "threads=" << threads;
    EXPECT_EQ(serial.standard_error, parallel.standard_error);
    EXPECT_EQ(serial.samples, parallel.samples);
    EXPECT_EQ(serial.complete, parallel.complete);
  }
}

TEST_F(ExecTest, AntitheticShapleyIsBitIdenticalAcrossThreadCounts) {
  const FunctionGame g = make_game(8);
  fedshare::exec::set_threads(1);
  const auto serial =
      fedshare::game::shapley_monte_carlo_antithetic(g, 200, 42);
  for (const int threads : {2, 4}) {
    fedshare::exec::set_threads(threads);
    const auto parallel =
        fedshare::game::shapley_monte_carlo_antithetic(g, 200, 42);
    EXPECT_EQ(serial.phi, parallel.phi) << "threads=" << threads;
    EXPECT_EQ(serial.standard_error, parallel.standard_error);
    EXPECT_EQ(serial.samples, parallel.samples);
  }
}

TEST_F(ExecTest, MonteCarloBudgetMinimumSamplesHoldInParallel) {
  const FunctionGame g = make_game(6);
  for (const int threads : {1, 4}) {
    fedshare::exec::set_threads(threads);
    const ComputeBudget budget = ComputeBudget().cap_nodes(0);
    const auto mc = fedshare::game::shapley_monte_carlo(g, 100, 3, &budget);
    EXPECT_FALSE(mc.complete);
    EXPECT_GE(mc.samples, 2u) << "threads=" << threads;
    for (const double se : mc.standard_error) {
      EXPECT_TRUE(std::isfinite(se));
    }
    const auto anti = fedshare::game::shapley_monte_carlo_antithetic(
        g, 100, 3, &budget);
    EXPECT_FALSE(anti.complete);
    EXPECT_GE(anti.samples, 2u);
    EXPECT_EQ(anti.samples % 2, 0u);
  }
}

TEST_F(ExecTest, OutageSweepIsIdenticalAcrossThreadCounts) {
  const auto fed = make_federation();
  fedshare::exec::set_threads(1);
  const auto serial =
      fedshare::runtime::evaluate_outages(fed, 8, 11, ComputeBudget());
  for (const int threads : {2, 4}) {
    fedshare::exec::set_threads(threads);
    const auto parallel =
        fedshare::runtime::evaluate_outages(fed, 8, 11, ComputeBudget());
    EXPECT_EQ(serial.scenarios_evaluated, parallel.scenarios_evaluated);
    EXPECT_EQ(serial.grand_value.mean, parallel.grand_value.mean);
    ASSERT_EQ(serial.schemes.size(), parallel.schemes.size());
    for (std::size_t j = 0; j < serial.schemes.size(); ++j) {
      EXPECT_EQ(serial.schemes[j].scheme, parallel.schemes[j].scheme);
      EXPECT_EQ(serial.schemes[j].core_fraction,
                parallel.schemes[j].core_fraction);
      ASSERT_EQ(serial.schemes[j].shares.size(),
                parallel.schemes[j].shares.size());
      for (std::size_t i = 0; i < serial.schemes[j].shares.size(); ++i) {
        EXPECT_EQ(serial.schemes[j].shares[i].mean,
                  parallel.schemes[j].shares[i].mean);
        EXPECT_EQ(serial.schemes[j].payoffs[i].mean,
                  parallel.schemes[j].payoffs[i].mean);
      }
    }
  }
}

TEST_F(ExecTest, FederationValueCacheSolvesEachCoalitionOnce) {
  const auto fed = make_federation();
  const auto tab1 = fed.build_game();
  const std::uint64_t misses_after_first = fed.value_cache().misses();
  const auto tab2 = fed.build_game();
  EXPECT_EQ(tab1.values(), tab2.values());
  // The second tabulation added no new LP solves.
  EXPECT_EQ(fed.value_cache().misses(), misses_after_first);
  EXPECT_GT(fed.value_cache().hits(), 0u);
}

// Each pool worker runs the V(S) greedy on its own per-thread scratch
// (alloc/greedy.cpp), which keeps the shape of the last coalition it
// solved. Eight overlapping facilities of mixed units under a concave,
// a diversity-gated and a convex class give coalitions of many
// histogram sizes, so a worker's scratch moves between shapes; a fresh
// federation each time keeps the memo from hiding the greedy.
TEST_F(ExecTest, FederationTabulationIsBitIdenticalAcrossThreadCounts) {
  const auto fresh_game = [] {
    std::vector<fedshare::model::FacilityConfig> configs;
    for (int i = 0; i < 8; ++i) {
      configs.push_back({"F" + std::to_string(i), 6 + 3 * i,
                         1.0 + 0.5 * (i % 3), 1.0 - 0.05 * (i % 4), {}});
    }
    fedshare::model::DemandProfile demand =
        fedshare::model::DemandProfile::uniform(6.0, 4.0);
    fedshare::model::RequestClass gated;
    gated.count = 3.0;
    gated.min_locations = 20.0;
    gated.units_per_location = 2.0;
    demand.classes.push_back(gated);
    fedshare::model::RequestClass convex;
    convex.count = 2.0;
    convex.min_locations = 5.0;
    convex.exponent = 1.3;
    demand.classes.push_back(convex);
    const fedshare::model::Federation fed(
        fedshare::model::LocationSpace::overlapping(configs, 40, 11),
        demand);
    return fed.build_game();
  };
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  fedshare::exec::set_threads(1);
  const TabularGame serial = fresh_game();
  for (const int threads : {2, 4}) {
    fedshare::exec::set_threads(threads);
    const TabularGame parallel = fresh_game();
    EXPECT_EQ(bits(serial.values()), bits(parallel.values()))
        << "threads=" << threads;
  }
}

// --- invalidate_if (the churn API) ---------------------------------------

TEST_F(ExecTest, ValueCacheInvalidateIfDropsExactlyTheMatchingSlice) {
  ValueCache cache(16);
  for (std::uint64_t mask = 1; mask < 16; ++mask) {
    cache.store(mask, static_cast<double>(mask));
  }
  // Drop the masks containing bit 1 — half the lattice.
  const std::size_t dropped =
      cache.invalidate_if([](std::uint64_t mask) { return mask >> 1 & 1; });
  EXPECT_EQ(dropped, 8u);
  EXPECT_EQ(cache.size(), 7u);
  EXPECT_EQ(cache.invalidations(), 8u);
  for (std::uint64_t mask = 1; mask < 16; ++mask) {
    if (mask >> 1 & 1) {
      EXPECT_FALSE(cache.lookup(mask).has_value()) << mask;
    } else {
      ASSERT_TRUE(cache.lookup(mask).has_value()) << mask;
      EXPECT_EQ(*cache.lookup(mask), static_cast<double>(mask));
    }
  }
}

TEST_F(ExecTest, ValueCacheStatsSnapshotsAllCounters) {
  ValueCache cache(8);
  (void)cache.value_or_compute(3, [] { return 1.0; });  // miss
  (void)cache.value_or_compute(3, [] { return 1.0; });  // hit
  (void)cache.lookup(5);  // lookup() alone does not count
  (void)cache.invalidate_if([](std::uint64_t) { return true; });
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hit_rate(), 0.5);
  cache.clear();
  const auto cleared = cache.stats();
  EXPECT_EQ(cleared.hits, 0u);
  EXPECT_EQ(cleared.misses, 0u);
  EXPECT_EQ(cleared.invalidations, 0u);
}

TEST_F(ExecTest, ValueCacheKeySpaceIsFixedAndExportsAscending) {
  ValueCache cache(130);  // three presence words, the last one partial
  for (const std::uint64_t key : {129u, 64u, 0u, 63u, 65u}) {
    cache.store(key, static_cast<double>(key) + 0.5);
  }
  cache.store(64, -1.0);  // a present key keeps its first value
  EXPECT_THROW(cache.store(130, 1.0), std::out_of_range);
  EXPECT_THROW((void)cache.lookup(130), std::out_of_range);
  EXPECT_THROW((void)cache.value_or_compute(1000, [] { return 1.0; }),
               std::out_of_range);
  const auto entries = cache.export_entries();
  const std::vector<std::pair<std::uint64_t, double>> expected = {
      {0, 0.5}, {63, 63.5}, {64, 64.5}, {65, 65.5}, {129, 129.5}};
  EXPECT_EQ(entries, expected);
  EXPECT_EQ(cache.capacity(), 130u);
  EXPECT_EQ(cache.size(), 5u);
}

// The churn race: one thread repeatedly invalidates a slice while
// readers look up and writers re-materialise the same key space. Run
// under TSan (tools/check.sh) this is the data-race certificate for the
// serve layer's invalidate-while-queried pattern; the assertions
// additionally pin the invariant that a racing reader sees either a
// miss or a *current* value, never a torn or stale-after-clear one.
TEST_F(ExecTest, ValueCacheConcurrentInvalidateVsReadIsSafe) {
  constexpr std::uint64_t kMasks = 64;
  ValueCache cache(kMasks);
  for (std::uint64_t mask = 1; mask < kMasks; ++mask) {
    cache.store(mask, static_cast<double>(mask));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread invalidator([&] {
    for (int round = 0; round < 200; ++round) {
      const std::uint64_t bit = static_cast<std::uint64_t>(round % 6);
      (void)cache.invalidate_if(
          [bit](std::uint64_t mask) { return mask >> bit & 1; });
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t mask = static_cast<std::uint64_t>(t) + 1;
      while (!stop.load(std::memory_order_acquire)) {
        mask = mask * 2862933555777941757ULL + 3037000493ULL;
        const std::uint64_t key = mask % kMasks;
        if (key == 0) continue;
        if (const auto value = cache.lookup(key)) {
          if (*value != static_cast<double>(key)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          // Raced with the invalidator: re-materialise, first store
          // wins either way.
          cache.store(key, static_cast<double>(key));
        }
      }
    });
  }
  invalidator.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(cache.stats().invalidations, cache.invalidations());
}

// The invalidate-then-recompute pattern against a reader that saw the
// old entries, made deterministic: the reader's reads of the values and
// the rewriter's stores to them are ordered only in real time, by a
// relaxed flag that carries no happens-before edge. Only the value
// array's atomics keep the pair from being a data race, so under TSan
// this test reports on every run if the values are plain doubles — the
// randomised churn test above catches that only by chance.
TEST_F(ExecTest, ValueCacheRewriteAfterAReaderIsRaceFree) {
  const std::vector<std::uint64_t> keys = {5, 70, 200};  // three words
  ValueCache cache(256);
  for (const std::uint64_t key : keys) {
    cache.store(key, static_cast<double>(key) + 0.25);
  }
  std::atomic<bool> read{false};
  std::vector<double> seen(keys.size(), 0.0);
  std::vector<double> rewritten(keys.size(), 0.0);
  std::thread reader([&] {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      seen[i] = cache.lookup(keys[i]).value_or(-1.0);
    }
    read.store(true, std::memory_order_relaxed);
  });
  std::thread rewriter([&] {
    while (!read.load(std::memory_order_relaxed)) std::this_thread::yield();
    (void)cache.invalidate_if([](std::uint64_t) { return true; });
    for (std::size_t i = 0; i < keys.size(); ++i) {
      rewritten[i] = cache.value_or_compute(
          keys[i], [&] { return static_cast<double>(keys[i]) + 0.25; });
    }
  });
  reader.join();
  rewriter.join();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<double>(keys[i]) + 0.25);
    EXPECT_EQ(rewritten[i], static_cast<double>(keys[i]) + 0.25);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
}

}  // namespace
