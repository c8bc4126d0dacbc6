// Property tests for the subset-lattice transform kernels
// (core/lattice.hpp): bitwise agreement with the scalar reference
// loops, thread-count invariance, and budget charging.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/game.hpp"
#include "core/lattice.hpp"
#include "exec/pool.hpp"
#include "game_reference.hpp"
#include "runtime/budget.hpp"
#include "sim/rng.hpp"

namespace fedshare::game {
namespace {

class LatticePropertyTest : public ::testing::Test {
 protected:
  void TearDown() override { fedshare::exec::set_threads(1); }
};

std::vector<double> random_table(int n, std::uint64_t seed,
                                 bool integral = false) {
  sim::Xoshiro256 rng(seed);
  std::vector<double> v(std::size_t{1} << n);
  for (std::size_t mask = 1; mask < v.size(); ++mask) {
    v[mask] = integral ? static_cast<double>(rng.below(1000))
                       : rng.uniform(-10.0, 10.0);
  }
  return v;  // v[0] == 0 by construction
}

// The historical in-place transform: the mask-conditional loop the
// kernel replaces. Same slot updates, same order within each bit pass.
void moebius_reference(std::vector<double>& v, int n) {
  for (int bit = 0; bit < n; ++bit) {
    const std::uint64_t b = std::uint64_t{1} << bit;
    for (std::uint64_t mask = 0; mask < v.size(); ++mask) {
      if (mask & b) v[mask] -= v[mask ^ b];
    }
  }
}

// The scalar subset formula for Shapley: per player, ascending mask
// order over subsets not containing the player.
std::vector<double> shapley_reference(const std::vector<double>& v, int n) {
  const std::vector<double> w = shapley_subset_weights(n);
  std::vector<double> phi(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    double sum = 0.0;
    for (std::uint64_t mask = 0; mask < v.size(); ++mask) {
      if (mask & bit) continue;
      sum += w[static_cast<std::size_t>(std::popcount(mask))] *
             (v[mask | bit] - v[mask]);
    }
    phi[static_cast<std::size_t>(i)] = sum;
  }
  return phi;
}

std::vector<double> banzhaf_reference(const std::vector<double>& v, int n) {
  const double scale = 1.0 / static_cast<double>(std::uint64_t{1} << (n - 1));
  std::vector<double> beta(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    double sum = 0.0;
    for (std::uint64_t mask = 0; mask < v.size(); ++mask) {
      if (mask & bit) continue;
      sum += v[mask | bit] - v[mask];
    }
    beta[static_cast<std::size_t>(i)] = sum * scale;
  }
  return beta;
}

TEST_F(LatticePropertyTest, MoebiusMatchesScalarReferenceBitwise) {
  for (int n = 1; n <= 12; n += 1) {
    std::vector<double> kernel = random_table(n, 0xdefu + n);
    std::vector<double> reference = kernel;
    moebius_transform(kernel, n);
    moebius_reference(reference, n);
    ASSERT_EQ(kernel, reference) << "n=" << n;
  }
}

TEST_F(LatticePropertyTest, ZetaMatchesNaiveSubsetSum) {
  // The zeta loop the Moebius inversion tests invert with.
  const int n = 9;
  const std::vector<double> v = random_table(n, 7, /*integral=*/true);
  std::vector<double> transformed = v;
  reference::zeta_transform(transformed, n);
  for (std::uint64_t mask = 0; mask < v.size(); ++mask) {
    double sum = 0.0;
    std::uint64_t sub = mask;
    for (;;) {
      sum += v[sub];
      if (sub == 0) break;
      sub = (sub - 1) & mask;
    }
    // Integral inputs make the subset sums exact in double.
    ASSERT_EQ(transformed[mask], sum) << "mask=" << mask;
  }
}

TEST_F(LatticePropertyTest, MoebiusInvertsZetaOnIntegralTables) {
  const int n = 11;
  const std::vector<double> original = random_table(n, 21, /*integral=*/true);
  std::vector<double> v = original;
  reference::zeta_transform(v, n);
  moebius_transform(v, n);
  ASSERT_EQ(v, original);
}

TEST_F(LatticePropertyTest, ShapleyLatticeMatchesScalarReferenceBitwise) {
  for (int n = 1; n <= 12; n += 3) {
    const std::vector<double> v = random_table(n, 0x51u + n);
    const TabularGame tab(n, v);
    ASSERT_EQ(shapley_lattice(tab), shapley_reference(v, n)) << "n=" << n;
  }
}

TEST_F(LatticePropertyTest, BanzhafLatticeMatchesScalarReferenceBitwise) {
  for (int n = 1; n <= 12; n += 3) {
    const std::vector<double> v = random_table(n, 0xb2u + n);
    const TabularGame tab(n, v);
    ASSERT_EQ(banzhaf_lattice(tab), banzhaf_reference(v, n)) << "n=" << n;
  }
}

TEST_F(LatticePropertyTest, DividendsLatticeMatchesInPlaceMoebius) {
  const int n = 10;
  const std::vector<double> v = random_table(n, 99);
  const TabularGame tab(n, v);
  std::vector<double> reference = v;
  moebius_reference(reference, n);
  ASSERT_EQ(dividends_lattice(tab), reference);
}

TEST_F(LatticePropertyTest, KernelsAreThreadCountInvariantBitwise) {
  const int n = 12;
  const std::vector<double> v = random_table(n, 0x7777u);
  const TabularGame tab(n, v);

  exec::set_threads(1);
  std::vector<double> moebius1 = v;
  moebius_transform(moebius1, n);
  const std::vector<double> phi1 = shapley_lattice(tab);
  const std::vector<double> beta1 = banzhaf_lattice(tab);
  const std::vector<double> div1 = dividends_lattice(tab);

  exec::set_threads(4);
  std::vector<double> moebius4 = v;
  moebius_transform(moebius4, n);
  EXPECT_EQ(moebius1, moebius4);
  EXPECT_EQ(phi1, shapley_lattice(tab));
  EXPECT_EQ(beta1, banzhaf_lattice(tab));
  EXPECT_EQ(div1, dividends_lattice(tab));
}

TEST_F(LatticePropertyTest, ShapleyBudgetedMatchesPlainAndTrips) {
  const int n = 10;
  const std::vector<double> v = random_table(n, 13);
  const TabularGame tab(n, v);
  const auto unlimited =
      shapley_lattice_budgeted(tab, runtime::ComputeBudget::unlimited());
  ASSERT_TRUE(unlimited.has_value());
  EXPECT_EQ(*unlimited, shapley_lattice(tab));

  const auto tripped =
      shapley_lattice_budgeted(tab, runtime::ComputeBudget().cap_nodes(5));
  EXPECT_FALSE(tripped.has_value());
}

TEST_F(LatticePropertyTest, BudgetedKernelsCancelUnderThreads) {
  // A tripped budget must cancel cleanly with parallel workers too.
  exec::set_threads(4);
  const int n = 12;
  const std::vector<double> v = random_table(n, 14);
  const TabularGame tab(n, v);
  EXPECT_FALSE(
      shapley_lattice_budgeted(tab, runtime::ComputeBudget().cap_nodes(100))
          .has_value());
}

TEST_F(LatticePropertyTest, SingleAndZeroPlayerEdgeCases) {
  std::vector<double> v0{0.0};
  moebius_transform(v0, 0);
  EXPECT_EQ(v0, std::vector<double>{0.0});

  std::vector<double> v1{0.0, 4.5};
  moebius_transform(v1, 1);
  EXPECT_EQ(v1, (std::vector<double>{0.0, 4.5}));

  const TabularGame tab(1, {0.0, 4.5});
  EXPECT_EQ(shapley_lattice(tab), std::vector<double>{4.5});
  EXPECT_EQ(banzhaf_lattice(tab), std::vector<double>{4.5});
}

}  // namespace
}  // namespace fedshare::game
