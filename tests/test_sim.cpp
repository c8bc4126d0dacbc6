// Tests for the simulation substrate: RNG, distributions, event queue,
// multiplexing simulator, and loss-network analytics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/distributions.hpp"
#include "sim/event_queue.hpp"
#include "sim/loss_network.hpp"
#include "sim/multiplex_sim.hpp"
#include "sim/rng.hpp"
#include "loss_reference.hpp"

namespace fedshare::sim {
namespace {

using reference::kaufman_roberts;

TEST(Rng, DeterministicStreams) {
  Xoshiro256 a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeAndBelow) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    ASSERT_GE(v, -2.0);
    ASSERT_LT(v, 3.0);
    ASSERT_LT(rng.below(10), 10u);
  }
  EXPECT_THROW((void)rng.uniform(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.below(0), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacement) {
  Xoshiro256 rng(99);
  const auto sample = sample_without_replacement(rng, 100, 30);
  ASSERT_EQ(sample.size(), 30u);
  for (std::size_t i = 1; i < sample.size(); ++i) {
    ASSERT_LT(sample[i - 1], sample[i]);  // ascending, distinct
  }
  EXPECT_GE(sample.front(), 0);
  EXPECT_LT(sample.back(), 100);
  EXPECT_EQ(sample_without_replacement(rng, 5, 5).size(), 5u);
  EXPECT_TRUE(sample_without_replacement(rng, 5, 0).empty());
  EXPECT_THROW((void)sample_without_replacement(rng, 3, 4),
               std::invalid_argument);
}

TEST(Distributions, ExponentialMeanMatches) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += exponential(rng, 2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
  EXPECT_THROW((void)exponential(rng, 0.0), std::invalid_argument);
}

TEST(Distributions, ParetoRespectsMinimum) {
  Xoshiro256 rng(12);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_GE(pareto(rng, 2.0, 3.0), 2.0);
  }
  EXPECT_THROW((void)pareto(rng, 0.0, 1.0), std::invalid_argument);
}

TEST(Distributions, HoldingTimeModels) {
  Xoshiro256 rng(13);
  HoldingTimeModel det;
  EXPECT_DOUBLE_EQ(det.sample(rng, 0.4), 0.4);

  HoldingTimeModel exp_model;
  exp_model.kind = HoldingTimeModel::Kind::kExponential;
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += exp_model.sample(rng, 0.4);
  EXPECT_NEAR(sum / 20000.0, 0.4, 0.02);

  HoldingTimeModel par;
  par.kind = HoldingTimeModel::Kind::kPareto;
  par.pareto_shape = 2.5;
  sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += par.sample(rng, 0.4);
  EXPECT_NEAR(sum / 20000.0, 0.4, 0.05);

  par.pareto_shape = 0.9;  // infinite mean
  EXPECT_THROW((void)par.sample(rng, 0.4), std::invalid_argument);
}

TEST(Distributions, PoissonProcessSpacing) {
  Xoshiro256 rng(14);
  PoissonProcess p(4.0);
  double prev = 0.0;
  double total_gap = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double t = p.next(rng);
    ASSERT_GT(t, prev);
    total_gap += t - prev;
    prev = t;
  }
  EXPECT_NEAR(total_gap / n, 0.25, 0.01);
  EXPECT_THROW(PoissonProcess(0.0), std::invalid_argument);
}

TEST(EventQueue, RunsInTimeOrderWithStableTies) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&](double) { order.push_back(2); });
  q.schedule(1.0, [&](double) { order.push_back(1); });
  q.schedule(2.0, [&](double) { order.push_back(3); });  // tie after first 2
  while (q.run_next()) {
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&](double) { ++fired; });
  q.schedule(5.0, [&](double) { ++fired; });
  q.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, RejectsPastAndNullHandlers) {
  EventQueue q;
  q.schedule(1.0, [](double) {});
  q.run_next();
  EXPECT_THROW(q.schedule(0.5, [](double) {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(2.0, nullptr), std::invalid_argument);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void(double)> chain = [&](double now) {
    if (++count < 5) q.schedule(now + 1.0, chain);
  };
  q.schedule(0.0, chain);
  q.run_until(100.0);
  EXPECT_EQ(count, 5);
}

alloc::LocationPool uniform_pool(int locations, double capacity) {
  alloc::LocationPool pool;
  pool.capacity.assign(static_cast<std::size_t>(locations), capacity);
  return pool;
}

TrafficClass traffic(double rate, double threshold, double hold,
                     double r = 1.0) {
  TrafficClass tc;
  tc.arrival_rate = rate;
  tc.request.min_locations = threshold;
  tc.request.holding_time = hold;
  tc.request.units_per_location = r;
  return tc;
}

TEST(MultiplexSim, LightLoadAdmitsEverything) {
  SimConfig cfg;
  cfg.horizon = 500.0;
  cfg.warmup = 50.0;
  const auto result = simulate_multiplexing(
      uniform_pool(10, 5.0), {traffic(0.1, 2.0, 0.5)}, cfg);
  ASSERT_EQ(result.per_class.size(), 1u);
  EXPECT_GT(result.per_class[0].arrivals, 10u);
  EXPECT_EQ(result.per_class[0].blocked, 0u);
  EXPECT_NEAR(result.per_class[0].blocking_probability(), 0.0, 1e-12);
  EXPECT_GT(result.utility_rate, 0.0);
}

TEST(MultiplexSim, OverloadBlocks) {
  // 2 locations x 1 unit; every admission holds both locations for 10
  // time units while arrivals come every ~0.1 -> heavy blocking.
  SimConfig cfg;
  cfg.horizon = 200.0;
  cfg.warmup = 20.0;
  const auto result = simulate_multiplexing(
      uniform_pool(2, 1.0), {traffic(10.0, 2.0, 10.0)}, cfg);
  EXPECT_GT(result.per_class[0].blocking_probability(), 0.8);
}

TEST(MultiplexSim, ShorterHoldingTimesRaiseThroughput) {
  // The multiplexing claim of Sec. 2.3.1: smaller t -> more admissions.
  SimConfig cfg;
  cfg.horizon = 400.0;
  cfg.warmup = 40.0;
  const auto slow = simulate_multiplexing(uniform_pool(5, 1.0),
                                          {traffic(2.0, 3.0, 5.0)}, cfg);
  const auto fast = simulate_multiplexing(uniform_pool(5, 1.0),
                                          {traffic(2.0, 3.0, 0.2)}, cfg);
  EXPECT_GT(fast.per_class[0].admitted, slow.per_class[0].admitted);
  EXPECT_LT(fast.per_class[0].blocking_probability(),
            slow.per_class[0].blocking_probability());
}

TEST(MultiplexSim, DeterministicGivenSeed) {
  SimConfig cfg;
  cfg.horizon = 100.0;
  cfg.warmup = 10.0;
  cfg.seed = 77;
  const auto a = simulate_multiplexing(uniform_pool(4, 2.0),
                                       {traffic(1.0, 2.0, 1.0)}, cfg);
  const auto b = simulate_multiplexing(uniform_pool(4, 2.0),
                                       {traffic(1.0, 2.0, 1.0)}, cfg);
  EXPECT_EQ(a.per_class[0].admitted, b.per_class[0].admitted);
  EXPECT_DOUBLE_EQ(a.utility_rate, b.utility_rate);
}

TEST(MultiplexSim, MaximalPolicyConsumesMoreUnits) {
  SimConfig cfg;
  cfg.horizon = 200.0;
  cfg.warmup = 20.0;
  SimConfig cfg_max = cfg;
  cfg_max.location_policy = LocationPolicy::kMaximal;
  const auto frugal = simulate_multiplexing(uniform_pool(8, 2.0),
                                            {traffic(0.5, 2.0, 1.0)}, cfg);
  const auto greedy = simulate_multiplexing(
      uniform_pool(8, 2.0), {traffic(0.5, 2.0, 1.0)}, cfg_max);
  EXPECT_GT(greedy.mean_busy_units, frugal.mean_busy_units);
  EXPECT_GT(greedy.utility_rate, frugal.utility_rate);  // d=1: more x
}

TEST(MultiplexSim, HighUnitsClassNeedsFullCapacityPerLocation) {
  // A CDN-style class (r = 4) cannot be admitted on capacity-2
  // locations, while an r = 1 class can.
  SimConfig cfg;
  cfg.horizon = 100.0;
  cfg.warmup = 0.0;
  const auto result = simulate_multiplexing(
      uniform_pool(6, 2.0),
      {traffic(1.0, 2.0, 0.5, /*r=*/4.0), traffic(1.0, 2.0, 0.5, 1.0)},
      cfg);
  EXPECT_EQ(result.per_class[0].admitted, 0u);
  EXPECT_GT(result.per_class[0].blocked, 0u);
  EXPECT_GT(result.per_class[1].admitted, 0u);
}

TEST(MultiplexSim, MultipleClassesInterleaveDeterministically) {
  SimConfig cfg;
  cfg.horizon = 200.0;
  cfg.warmup = 20.0;
  cfg.seed = 404;
  const std::vector<TrafficClass> classes{traffic(2.0, 2.0, 0.5),
                                          traffic(1.0, 4.0, 1.0, 2.0)};
  const auto a = simulate_multiplexing(uniform_pool(8, 4.0), classes, cfg);
  const auto b = simulate_multiplexing(uniform_pool(8, 4.0), classes, cfg);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    EXPECT_EQ(a.per_class[c].admitted, b.per_class[c].admitted);
    EXPECT_EQ(a.per_class[c].arrivals, b.per_class[c].arrivals);
  }
  EXPECT_GT(a.per_class[0].arrivals, a.per_class[1].arrivals);
}

TEST(MultiplexSim, ThresholdAboveLocationsBlocksEverything) {
  SimConfig cfg;
  cfg.horizon = 50.0;
  cfg.warmup = 0.0;
  const auto result = simulate_multiplexing(
      uniform_pool(3, 10.0), {traffic(2.0, 5.0, 0.5)}, cfg);
  EXPECT_EQ(result.per_class[0].admitted, 0u);
  EXPECT_DOUBLE_EQ(result.per_class[0].blocking_probability(), 1.0);
  EXPECT_DOUBLE_EQ(result.utility_rate, 0.0);
}

TEST(MultiplexSim, ValidatesConfig) {
  SimConfig cfg;
  cfg.horizon = 10.0;
  cfg.warmup = 20.0;
  EXPECT_THROW((void)simulate_multiplexing(uniform_pool(1, 1.0),
                                           {traffic(1.0, 1.0, 1.0)}, cfg),
               std::invalid_argument);
  SimConfig ok;
  TrafficClass bad = traffic(0.0, 1.0, 1.0);
  EXPECT_THROW((void)simulate_multiplexing(uniform_pool(1, 1.0), {bad}, ok),
               std::invalid_argument);
}

TEST(ErlangB, KnownValues) {
  // Classic table values: B(E=10, C=10) ~ 0.215, B(E=1, C=1) = 0.5.
  EXPECT_NEAR(erlang_b(1.0, 1), 0.5, 1e-12);
  EXPECT_NEAR(erlang_b(10.0, 10), 0.2146, 5e-4);
  EXPECT_DOUBLE_EQ(erlang_b(0.0, 5), 0.0);
  EXPECT_DOUBLE_EQ(erlang_b(3.0, 0), 1.0);
  EXPECT_THROW((void)erlang_b(-1.0, 1), std::invalid_argument);
}

TEST(ErlangB, MonotoneInLoadAndCapacity) {
  EXPECT_LT(erlang_b(5.0, 10), erlang_b(8.0, 10));
  EXPECT_GT(erlang_b(5.0, 5), erlang_b(5.0, 10));
}

TEST(KaufmanRoberts, SingleClassMatchesErlangB) {
  const auto blocking = kaufman_roberts(10, {{7.0, 1}});
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_NEAR(blocking[0], erlang_b(7.0, 10), 1e-12);
}

TEST(KaufmanRoberts, WiderCallsBlockMore) {
  const auto blocking = kaufman_roberts(10, {{2.0, 1}, {2.0, 4}});
  ASSERT_EQ(blocking.size(), 2u);
  EXPECT_LT(blocking[0], blocking[1]);
}

TEST(KaufmanRoberts, Validates) {
  EXPECT_THROW((void)kaufman_roberts(-1, {}), std::invalid_argument);
  EXPECT_THROW((void)kaufman_roberts(5, {{-1.0, 1}}), std::invalid_argument);
  EXPECT_THROW((void)kaufman_roberts(5, {{1.0, 0}}), std::invalid_argument);
}

TEST(ReducedLoad, ConvergesAndBounds) {
  const auto r = reduced_load_blocking(/*rate=*/5.0, /*hold=*/1.0,
                                       /*needed=*/3, /*total=*/10,
                                       /*servers=*/2);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.call_blocking, r.link_blocking);
  EXPECT_GE(r.link_blocking, 0.0);
  EXPECT_LE(r.call_blocking, 1.0);
}

TEST(ReducedLoad, ZeroLoadMeansNoBlocking) {
  const auto r = reduced_load_blocking(0.0, 1.0, 2, 5, 3);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.call_blocking, 0.0, 1e-12);
}

TEST(ReducedLoad, Validates) {
  EXPECT_THROW((void)reduced_load_blocking(1.0, 0.0, 1, 2, 1),
               std::invalid_argument);
  EXPECT_THROW((void)reduced_load_blocking(1.0, 1.0, 3, 2, 1),
               std::invalid_argument);
}

TEST(LogBinomialLowerTail, MatchesDirectComputation) {
  // P(X < 2) for X ~ Binom(4, 0.5) = (1 + 4) / 16.
  EXPECT_NEAR(std::exp(log_binomial_lower_tail(2, 4, 0.5)), 5.0 / 16.0,
              1e-12);
  EXPECT_EQ(log_binomial_lower_tail(0, 10, 0.3),
            -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(log_binomial_lower_tail(11, 10, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(std::exp(log_binomial_lower_tail(3, 10, 0.0)), 1.0);
  EXPECT_EQ(log_binomial_lower_tail(3, 10, 1.0),
            -std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)log_binomial_lower_tail(-1, 5, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)log_binomial_lower_tail(2, 5, 1.5),
               std::invalid_argument);
}

TEST(LogBinomialLowerTail, StableForLargeN) {
  // n = 1300, k = 500, p = 0.5: deep left tail, must not under/overflow.
  const double log_tail = log_binomial_lower_tail(500, 1300, 0.5);
  EXPECT_TRUE(std::isfinite(log_tail));
  EXPECT_LT(log_tail, -30.0);  // ~8 standard deviations below the mean
}

TEST(AnyKBlocking, NearZeroWhenSparse) {
  // Needing 3 of 12 locations under light load: essentially no blocking.
  const auto r = any_k_blocking(0.5, 1.0, 3, 12, 2);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.call_blocking, 0.01);
}

TEST(AnyKBlocking, HighWhenDense) {
  // Needing 11 of 12 locations under real load: blocking is material and
  // far above the sparse case.
  const auto dense = any_k_blocking(2.0, 1.0, 11, 12, 2);
  const auto sparse = any_k_blocking(2.0, 1.0, 3, 12, 2);
  EXPECT_TRUE(dense.converged);
  EXPECT_GT(dense.call_blocking, sparse.call_blocking);
}

TEST(AnyKBlocking, PoolingReducesBlockingAtEqualPerLocationLoad) {
  // Same per-location offered load, but a bigger pool has more spare
  // diversity: the any-k model captures the pooling gain the fixed-route
  // reduced-load model misses.
  const auto alone = any_k_blocking(3.0, 1.0, 25, 30, 2);
  const auto pooled = any_k_blocking(6.0, 1.0, 25, 60, 2);
  EXPECT_LT(pooled.call_blocking, alone.call_blocking);
}

TEST(AnyKBlocking, MatchesSimulatorWhenCallsAreSparse) {
  // 12 locations of 2 servers, calls needing 3 of them at rate 2 with
  // exponential unit holding times. The any-k fixed point assumes
  // independent locations, which is accurate when each call touches few
  // of them; its carried utility rate lambda * (1 - B) * u(3) must match
  // the multiplexing simulator's within 10%. In the dense regime (calls
  // spanning most locations) the approximation is known to be
  // pessimistic; HighWhenDense covers that regime qualitatively.
  const TrafficClass tc = traffic(2.0, 3.0, 1.0);
  const auto blocking = any_k_blocking(tc.arrival_rate,
                                       tc.request.holding_time, 3, 12, 2);
  ASSERT_TRUE(blocking.converged);
  const double analytic = tc.arrival_rate * (1.0 - blocking.call_blocking) *
                          std::pow(3.0, tc.request.exponent);
  SimConfig cfg;
  cfg.horizon = 4000.0;
  cfg.warmup = 400.0;
  cfg.seed = 17;
  cfg.holding_time.kind = HoldingTimeModel::Kind::kExponential;
  const double simulated =
      simulate_multiplexing(uniform_pool(12, 2.0), {tc}, cfg).utility_rate;
  EXPECT_NEAR(analytic, simulated, 0.10 * simulated)
      << "analytic " << analytic << " vs sim " << simulated;
}

TEST(AnyKBlocking, Validates) {
  EXPECT_THROW((void)any_k_blocking(1.0, 0.0, 1, 2, 1),
               std::invalid_argument);
  EXPECT_THROW((void)any_k_blocking(1.0, 1.0, 5, 2, 1),
               std::invalid_argument);
  EXPECT_THROW((void)any_k_blocking(1.0, 1.0, 1, 2, 0),
               std::invalid_argument);
}

TEST(ReducedLoad, MatchesSimulationShape) {
  // Higher load -> higher blocking in both the analytic model and the
  // simulator.
  const auto low = reduced_load_blocking(1.0, 1.0, 2, 6, 2);
  const auto high = reduced_load_blocking(20.0, 1.0, 2, 6, 2);
  EXPECT_LT(low.call_blocking, high.call_blocking);
}

}  // namespace
}  // namespace fedshare::sim
