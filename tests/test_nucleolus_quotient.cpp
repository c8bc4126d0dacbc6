// Quotient-space nucleolus (core/nucleolus.hpp, orbit-row formulation):
// dense-vs-quotient agreement on randomized typed games, bitwise
// equality where the arithmetic is exact (dyadic two-type family,
// all-singletons dispatch, within-type expansion), thread-count
// invariance, budget degradation, LP certification of every orbit
// probe, and the row-count guards that replaced the hard n <= 10 throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/nucleolus.hpp"
#include "core/sharing.hpp"
#include "core/symmetry.hpp"
#include "exec/pool.hpp"
#include "runtime/budget.hpp"
#include "sim/rng.hpp"
#include "verify/certified.hpp"

namespace fedshare::game {
namespace {

class NucleolusQuotientTest : public ::testing::Test {
 protected:
  void TearDown() override { fedshare::exec::set_threads(1); }
};

// A game whose value depends only on per-type member counts — symmetric
// by construction, so the quotient formulation applies. The value stays
// dyadic (integer linear term + 0.125 * total^2), keeping the LP data
// exactly representable.
FunctionGame typed_game(PlayerPartition partition, std::uint64_t seed) {
  const int n = partition.num_players();
  return FunctionGame(n, [partition, seed](Coalition s) {
    std::vector<int> counts(static_cast<std::size_t>(partition.num_types()),
                            0);
    for (const int i : s.members()) {
      ++counts[static_cast<std::size_t>(partition.type_of(i))];
    }
    double acc = 0.0;
    int total = 0;
    for (int t = 0; t < partition.num_types(); ++t) {
      const double c = counts[static_cast<std::size_t>(t)];
      acc += c * (t + 2.0 + static_cast<double>(seed % 5));
      total += counts[static_cast<std::size_t>(t)];
    }
    return acc + 0.125 * total * total;
  });
}

PlayerPartition random_partition(int n, sim::Xoshiro256& rng) {
  const int target_types =
      1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  std::vector<int> type_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    type_of[static_cast<std::size_t>(i)] =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(target_types)));
  }
  return PlayerPartition::from_type_of(type_of);
}

lp::SimplexOptions solver_options(lp::SolverKind kind) {
  lp::SimplexOptions options;
  options.solver = kind;
  return options;
}

// Both formulations minimise the same lexicographic objective, but run
// structurally different LPs (2^n - 2 mask rows vs orbit rows), so
// their pivot paths round differently; agreement is exact-to-the-double
// only where the arithmetic stays dyadic throughout. This family does
// (verified for both solver flavours): every multiplicity is a power of
// two and the game values are dyadic, so every ratio the simplex takes
// is exactly representable.
TEST_F(NucleolusQuotientTest, MatchesDenseBitwiseOnDyadicTwoTypeGames) {
  const PlayerPartition partition = PlayerPartition::from_type_of({0, 0, 1, 1});
  for (const auto kind : {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
    const auto options = solver_options(kind);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const TabularGame tab = tabulate(typed_game(partition, seed * 7919));
      const NucleolusResult dense = nucleolus(tab, options);
      const QuotientGame quotient(tab, partition);
      const NucleolusResult orbit = nucleolus_quotient(quotient, options);
      ASSERT_TRUE(dense.solved);
      ASSERT_TRUE(orbit.solved);
      ASSERT_EQ(orbit.allocation.size(), dense.allocation.size());
      for (std::size_t i = 0; i < dense.allocation.size(); ++i) {
        EXPECT_EQ(orbit.allocation[i], dense.allocation[i])
            << "seed " << seed << " player " << i;
      }
      EXPECT_LT(orbit.excess_rows, dense.excess_rows);
    }
  }
}

// The orbit-row formulation on an all-singletons partition is the dense
// formulation: every orbit is one coalition mask, in the same order, so
// the two entry points run the same loop and agree bit for bit.
TEST_F(NucleolusQuotientTest, AllSingletonsDispatchMatchesDenseBitwise) {
  sim::Xoshiro256 rng(0x5157);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(5));  // 2..6
    const PlayerPartition identity = PlayerPartition::identity(n);
    const TabularGame tab = tabulate(typed_game(random_partition(n, rng),
                                                rng.next()));
    const auto options = solver_options(lp::SolverKind::kDense);
    const NucleolusResult direct = nucleolus(tab, options);
    const NucleolusResult singletons =
        nucleolus_quotient(QuotientGame(tab, identity), options);
    ASSERT_TRUE(direct.solved);
    ASSERT_TRUE(singletons.solved);
    EXPECT_EQ(singletons.allocation, direct.allocation);
    EXPECT_EQ(singletons.levels, direct.levels);
  }
}

// Randomized typed games across profiles (including one-type): the two
// formulations agree to far below any decision tolerance. Observed
// worst-case disagreement is ~1e-14 (different pivot paths); the gate
// leaves two orders of magnitude of headroom.
TEST_F(NucleolusQuotientTest, AgreesWithDenseOnRandomTypedGames) {
  for (const auto kind : {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
    const auto options = solver_options(kind);
    sim::Xoshiro256 rng(kind == lp::SolverKind::kDense ? 0xabcd : 0x1234);
    for (int trial = 0; trial < 8; ++trial) {
      const int n = 2 + static_cast<int>(rng.below(7));  // 2..8
      const PlayerPartition partition = random_partition(n, rng);
      const TabularGame tab = tabulate(typed_game(partition, rng.next()));
      const NucleolusResult dense = nucleolus(tab, options);
      const QuotientGame quotient(tab, partition);
      const NucleolusResult orbit = nucleolus_quotient(quotient, options);
      ASSERT_TRUE(dense.solved);
      ASSERT_TRUE(orbit.solved);
      const double scale = std::max(1.0, std::abs(tab.grand_value()));
      for (std::size_t i = 0; i < dense.allocation.size(); ++i) {
        EXPECT_NEAR(orbit.allocation[i], dense.allocation[i], 1e-12 * scale)
            << "trial " << trial << " player " << i;
      }
      // Per-type expansion is exact: same-type players carry the
      // *identical* double, not merely close ones.
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          if (partition.type_of(i) == partition.type_of(j)) {
            EXPECT_EQ(orbit.allocation[static_cast<std::size_t>(i)],
                      orbit.allocation[static_cast<std::size_t>(j)]);
          }
        }
      }
    }
  }
}

// n = 9, 10 with the revised engine (the dense *solver* on 2^n-row LPs
// is minutes-slow there; the formulations are what is under test).
TEST_F(NucleolusQuotientTest, AgreesWithDenseAtTenPlayers) {
  const auto options = solver_options(lp::SolverKind::kRevised);
  const std::vector<std::vector<int>> profiles = {
      {0, 0, 0, 0, 0, 1, 1, 1, 2},
      {0, 0, 0, 0, 0, 1, 1, 1, 1, 1},
  };
  for (const auto& type_of : profiles) {
    const PlayerPartition partition = PlayerPartition::from_type_of(type_of);
    const TabularGame tab = tabulate(typed_game(partition, 7919));
    const NucleolusResult dense = nucleolus(tab, options);
    const QuotientGame quotient(tab, partition);
    const NucleolusResult orbit = nucleolus_quotient(quotient, options);
    ASSERT_TRUE(dense.solved);
    ASSERT_TRUE(orbit.solved);
    const double scale = std::max(1.0, std::abs(tab.grand_value()));
    for (std::size_t i = 0; i < dense.allocation.size(); ++i) {
      EXPECT_NEAR(orbit.allocation[i], dense.allocation[i], 1e-12 * scale);
    }
    // prod_t (m_t + 1) - 2 orbit rows vs 2^n - 2 mask rows.
    std::uint64_t expected = 1;
    for (int t = 0; t < partition.num_types(); ++t) {
      expected *= static_cast<std::uint64_t>(partition.multiplicity(t)) + 1;
    }
    EXPECT_EQ(orbit.excess_rows, expected - 2);
    EXPECT_GE(dense.excess_rows, 10 * orbit.excess_rows);
  }
}

// The orbit table is materialised in parallel but each orbit writes its
// own slot, and the LPs are single-threaded — the quotient nucleolus is
// bit-identical at any thread count.
TEST_F(NucleolusQuotientTest, ThreadCountInvariance) {
  const PlayerPartition partition =
      PlayerPartition::from_type_of({0, 0, 0, 0, 0, 1, 1, 1, 1, 1});
  const FunctionGame base = typed_game(partition, 4242);
  const auto options = solver_options(lp::SolverKind::kRevised);

  fedshare::exec::set_threads(1);
  const QuotientGame q1(base, partition);
  const NucleolusResult r1 = nucleolus_quotient(q1, options);

  fedshare::exec::set_threads(4);
  const QuotientGame q4(base, partition);
  const NucleolusResult r4 = nucleolus_quotient(q4, options);

  ASSERT_TRUE(r1.solved);
  ASSERT_TRUE(r4.solved);
  ASSERT_EQ(r1.allocation.size(), r4.allocation.size());
  for (std::size_t i = 0; i < r1.allocation.size(); ++i) {
    EXPECT_EQ(r1.allocation[i], r4.allocation[i]);
  }
  ASSERT_EQ(r1.levels.size(), r4.levels.size());
  for (std::size_t i = 0; i < r1.levels.size(); ++i) {
    EXPECT_EQ(r1.levels[i], r4.levels[i]);
  }
}

// A tripped budget surfaces as solved == false (one unit per orbit
// materialised), and the scheme comparison converts that into a skip
// note instead of a throw.
TEST_F(NucleolusQuotientTest, BudgetTripDegrades) {
  const PlayerPartition partition =
      PlayerPartition::from_type_of({0, 0, 0, 1, 1, 1});
  const FunctionGame base = typed_game(partition, 99);
  const TabularGame tab = tabulate(base);
  const QuotientGame quotient(tab, partition);

  // 4^2 = 16 orbits; 3 units cannot materialise them.
  const auto tight = runtime::ComputeBudget().cap_nodes(3);
  lp::SimplexOptions options;
  options.budget = &tight;
  const NucleolusResult r = nucleolus_quotient(quotient, options);
  EXPECT_FALSE(r.solved);
  EXPECT_TRUE(r.allocation.empty());

  const auto exhausted = runtime::ComputeBudget().cap_nodes(0);
  (void)exhausted.charge(1);
  lp::SimplexOptions revised = solver_options(lp::SolverKind::kRevised);
  revised.budget = &exhausted;
  const auto rs = compare_schemes(tab, {}, {}, revised, &partition);
  bool skipped = false;
  for (const auto& note : rs.notes()) {
    if (note.find("nucleolus: skipped") != std::string::npos) skipped = true;
  }
  EXPECT_TRUE(skipped);
  for (const auto& o : rs.outcomes) {
    EXPECT_NE(o.scheme, Scheme::kNucleolus);
  }
}

// A node cap one unit short of what an unbudgeted-size run charges
// admits the first least-core LP and trips inside a later LP of the
// chain: the result degrades to solved == false with no allocation. A
// cap of exactly that many units returns the unbudgeted answer bit for
// bit. Both entry points (the quotient path also charges one unit per
// orbit materialised), both engines. The game needs a chain of several
// LPs: each pair of one member of either type is worth 4 on top of 1 per
// member, V = 4 min(c_0, c_1) + |S|, which takes two levels (typed_game
// settles in one LP).
TEST_F(NucleolusQuotientTest, BudgetTripInsideLpChainDegrades) {
  const PlayerPartition partition =
      PlayerPartition::from_type_of({0, 0, 0, 1, 1, 1});
  const TabularGame tab = tabulate(FunctionGame(6, [&](Coalition s) {
    int counts[2] = {0, 0};
    for (const int i : s.members()) ++counts[partition.type_of(i)];
    return 4.0 * std::min(counts[0], counts[1]) + s.size();
  }));
  for (const auto kind : {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
    for (const bool quotient : {false, true}) {
      const auto run = [&](const runtime::ComputeBudget* budget) {
        lp::SimplexOptions options;
        options.solver = kind;
        options.budget = budget;
        if (!quotient) return nucleolus(tab, options);
        const QuotientGame fresh(tab, partition);  // empty orbit cache
        return nucleolus_quotient(fresh, options);
      };
      const std::string what = std::string(lp::to_string(kind)) +
                               (quotient ? " quotient" : " dense");
      const NucleolusResult want = run(nullptr);
      ASSERT_TRUE(want.solved) << what;
      ASSERT_GT(want.lps_solved, 1u) << what;

      const runtime::ComputeBudget meter;
      ASSERT_TRUE(run(&meter).solved) << what;
      const std::uint64_t units = meter.used();

      const auto short_cap = runtime::ComputeBudget().cap_nodes(units - 1);
      const NucleolusResult cut = run(&short_cap);
      EXPECT_EQ(short_cap.stop_reason(), runtime::StopReason::kNodeCap)
          << what;
      EXPECT_FALSE(cut.solved) << what;
      EXPECT_TRUE(cut.allocation.empty()) << what;
      EXPECT_FALSE(cut.levels.empty()) << what << ": first LP not admitted";

      const auto exact_cap = runtime::ComputeBudget().cap_nodes(units);
      const NucleolusResult fits = run(&exact_cap);
      ASSERT_TRUE(fits.solved) << what;
      ASSERT_EQ(fits.allocation.size(), want.allocation.size()) << what;
      for (std::size_t i = 0; i < want.allocation.size(); ++i) {
        EXPECT_EQ(fits.allocation[i], want.allocation[i])
            << what << " player " << i;
      }
      EXPECT_EQ(fits.levels, want.levels) << what;
    }
  }
}

// With an untripped budget the comparison takes the quotient path and
// reports its telemetry.
TEST_F(NucleolusQuotientTest, ResilientCascadeUsesQuotientPath) {
  const PlayerPartition partition =
      PlayerPartition::from_type_of({0, 0, 0, 1, 1, 1});
  const TabularGame tab = tabulate(typed_game(partition, 99));
  QuotientNucleolusInfo info;
  const runtime::ComputeBudget unlimited;
  lp::SimplexOptions revised = solver_options(lp::SolverKind::kRevised);
  revised.budget = &unlimited;
  const auto rs = compare_schemes(tab, {}, {}, revised, &partition, &info);
  EXPECT_TRUE(info.attempted);
  EXPECT_TRUE(info.used);
  EXPECT_EQ(info.orbit_rows, 4u * 4u - 2u);
  EXPECT_EQ(info.dense_rows, (std::uint64_t{1} << 6) - 2);
  EXPECT_GT(info.lps_solved, 0u);
  bool found = false;
  for (const auto& o : rs.outcomes) {
    if (o.scheme == Scheme::kNucleolus) found = true;
  }
  EXPECT_TRUE(found);
}

// Every orbit probe LP runs under the certificate cascade: attach a
// CertifyingObserver and demand zero failures across all solves of a
// full quotient run (both solver flavours).
TEST_F(NucleolusQuotientTest, OrbitProbesAreCertified) {
  const PlayerPartition partition =
      PlayerPartition::from_type_of({0, 0, 0, 1, 1, 2, 2});
  const TabularGame tab = tabulate(typed_game(partition, 17));
  for (const auto kind : {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
    lp::SimplexOptions options = solver_options(kind);
    verify::VerifyOptions verify_options;
    verify_options.level = verify::VerifyLevel::kFull;
    verify::CertifyingObserver observer(verify_options, options);
    options.observer = &observer;
    const QuotientGame quotient(tab, partition);
    const NucleolusResult r = nucleolus_quotient(quotient, options);
    ASSERT_TRUE(r.solved);
    const auto stats = observer.stats();
    EXPECT_EQ(stats.solves, r.lps_solved);
    EXPECT_GT(stats.solves, 0u);
    EXPECT_EQ(stats.failures, 0u);
  }
}

// The quotient run solves LPs over orbit rows only, and the solved-LP
// count lands in the result's telemetry alongside the row count.
TEST_F(NucleolusQuotientTest, ReportsOrbitRowTelemetry) {
  const PlayerPartition partition =
      PlayerPartition::from_type_of({0, 0, 0, 0, 1, 1, 1, 1});
  const TabularGame tab = tabulate(typed_game(partition, 5));
  const QuotientGame quotient(tab, partition);
  const NucleolusResult r =
      nucleolus_quotient(quotient, solver_options(lp::SolverKind::kRevised));
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.excess_rows, 5u * 5u - 2u);  // (m+1)^T - 2
  EXPECT_GT(r.lps_solved, 0u);
  EXPECT_FALSE(r.levels.empty());
}

// Both formulations share one row-count guard, kMaxExcessRows, and one
// message naming the row count and the constant. Dense n = 16 carries
// 2^16 - 2 = 65534 rows, one past the largest game that fits (n = 15).
TEST_F(NucleolusQuotientTest, DenseGuardNamesTheExcessRowCeiling) {
  const FunctionGame big(16, [](Coalition s) {
    return static_cast<double>(s.size());
  });
  try {
    (void)nucleolus(big);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "nucleolus: 65534 excess rows exceed kMaxExcessRows = 32768");
  }
}

// The quotient formulation guards on orbit count, not player count: a
// partition whose orbit space explodes is refused with the same message,
// while large n with few types sails through.
TEST_F(NucleolusQuotientTest, QuotientGuardRejectsOrbitBlowup) {
  std::vector<int> type_of(24);
  for (int i = 0; i < 24; ++i) type_of[static_cast<std::size_t>(i)] = i / 3;
  const PlayerPartition partition = PlayerPartition::from_type_of(type_of);
  // 8 types x 3 copies: 4^8 - 2 = 65534 orbit rows > kMaxExcessRows.
  const FunctionGame base(24, [](Coalition s) {
    return static_cast<double>(s.size());
  });
  const QuotientGame quotient(base, partition);
  try {
    (void)nucleolus_quotient(quotient, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "nucleolus_quotient: " + excess_rows_refusal(65534));
  }
}

// Past the dense ceiling entirely: typed n = 16 (4 types x 4 copies)
// solves on orbit rows, and the expanded allocation is efficient and
// symmetric. The dense formulation refuses the same game.
TEST_F(NucleolusQuotientTest, SolvesTypedSixteenPlayers) {
  std::vector<int> type_of(16);
  for (int i = 0; i < 16; ++i) type_of[static_cast<std::size_t>(i)] = i / 4;
  const PlayerPartition partition = PlayerPartition::from_type_of(type_of);
  const FunctionGame base = typed_game(partition, 3);
  EXPECT_THROW((void)nucleolus(base), std::invalid_argument);

  const QuotientGame quotient(base, partition);
  const NucleolusResult r =
      nucleolus_quotient(quotient, solver_options(lp::SolverKind::kRevised));
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.excess_rows, 5u * 5u * 5u * 5u - 2u);
  double sum = 0.0;
  for (const double x : r.allocation) sum += x;
  EXPECT_NEAR(sum, base.value(Coalition::grand(16)), 1e-9);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(r.allocation[static_cast<std::size_t>(i)],
              r.allocation[static_cast<std::size_t>(4 * (i / 4))]);
  }
}

// compare_schemes with a non-trivial partition produces a nucleolus row
// agreeing with the partition-less overload, and fills the telemetry
// out-param; an all-singletons partition leaves the dense path's bytes
// untouched.
TEST_F(NucleolusQuotientTest, CompareSchemesRoutesThroughQuotient) {
  const PlayerPartition partition =
      PlayerPartition::from_type_of({0, 0, 1, 1});
  const TabularGame tab = tabulate(typed_game(partition, 8));
  const lp::SimplexOptions options;

  const auto plain = compare_schemes(tab, {}, {}, options).outcomes;
  QuotientNucleolusInfo info;
  const auto quotiented =
      compare_schemes(tab, {}, {}, options, &partition, &info).outcomes;
  EXPECT_TRUE(info.used);
  EXPECT_GT(info.orbit_misses, 0u);
  ASSERT_EQ(plain.size(), quotiented.size());
  for (std::size_t s = 0; s < plain.size(); ++s) {
    ASSERT_EQ(plain[s].scheme, quotiented[s].scheme);
    // Bitwise across the board: the non-nucleolus schemes run the same
    // code, and the nucleolus is on the dyadic two-type family.
    for (std::size_t i = 0; i < plain[s].shares.size(); ++i) {
      EXPECT_EQ(quotiented[s].shares[i], plain[s].shares[i]);
    }
  }

  QuotientNucleolusInfo trivial_info;
  const PlayerPartition identity = PlayerPartition::identity(4);
  const auto fallback =
      compare_schemes(tab, {}, {}, options, &identity, &trivial_info)
          .outcomes;
  EXPECT_FALSE(trivial_info.attempted);
  for (std::size_t s = 0; s < plain.size(); ++s) {
    for (std::size_t i = 0; i < plain[s].shares.size(); ++i) {
      EXPECT_EQ(fallback[s].shares[i], plain[s].shares[i]);
    }
  }
}

}  // namespace
}  // namespace fedshare::game
