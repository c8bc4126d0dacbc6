// core/lattice_simd: the vector kernels must be BITWISE identical to
// the scalar reference loops — Moebius pair passes, Shapley and
// Banzhaf marginal sums — on randomized tables up to n = 16, at 1 and 4
// worker threads, and under forced dispatch so both code paths run on
// every host regardless of its CPU. Suite names carry "Lattice" for
// ctest filtering.
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/game.hpp"
#include "core/lattice.hpp"
#include "core/lattice_simd.hpp"
#include "exec/pool.hpp"
#include "game_reference.hpp"

namespace fedshare::game {
namespace {

// The dispatch mode is process-global; every test restores kAuto.
struct ModeGuard {
  ~ModeGuard() { simd::set_mode(simd::Mode::kAuto); }
};

std::vector<double> random_table(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  std::vector<double> values(std::size_t{1} << n);
  for (double& v : values) v = dist(rng);
  return values;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(LatticeSimd, ModeRoundTripsAndDetectionIsStable) {
  ModeGuard guard;
  EXPECT_EQ(simd::mode(), simd::Mode::kAuto);
  simd::set_mode(simd::Mode::kForceScalar);
  EXPECT_EQ(simd::mode(), simd::Mode::kForceScalar);
  simd::set_mode(simd::Mode::kForceSimd);
  EXPECT_EQ(simd::mode(), simd::Mode::kForceSimd);
  // Detection must not flap between calls (it is latched once).
  EXPECT_EQ(simd::cpu_has_avx2(), simd::cpu_has_avx2());
}

TEST(LatticeSimd, PairPassKernelsMatchScalarOnPartialRanges) {
  ModeGuard guard;
  const int n = 10;
  const std::uint64_t half = std::uint64_t{1} << (n - 1);
  for (int bit = 0; bit < n; ++bit) {
    // Odd split points exercise the run-clipping logic at both ends.
    const std::uint64_t splits[] = {0, 7, 129, 300, half};
    for (std::size_t s = 0; s + 1 < std::size(splits); ++s) {
      std::vector<double> scalar = random_table(n, 17 + bit);
      std::vector<double> vector = scalar;
      simd::set_mode(simd::Mode::kForceScalar);
      simd::sub_pass(scalar.data(), splits[s], splits[s + 1], bit);
      simd::set_mode(simd::Mode::kForceSimd);
      simd::sub_pass(vector.data(), splits[s], splits[s + 1], bit);
      EXPECT_TRUE(bit_equal(scalar, vector))
          << "sub bit " << bit << " range [" << splits[s] << ", "
          << splits[s + 1] << ")";
    }
  }
}

TEST(LatticeSimd, TransformsBitIdenticalUpTo16PlayersBothThreadCounts) {
  ModeGuard guard;
  const int saved = exec::threads();
  for (const int threads : {1, 4}) {
    exec::set_threads(threads);
    for (const int n : {1, 2, 3, 5, 8, 11, 16}) {
      std::vector<double> scalar = random_table(n, 100 + n);
      std::vector<double> vector = scalar;

      simd::set_mode(simd::Mode::kForceScalar);
      moebius_transform(scalar, n);
      simd::set_mode(simd::Mode::kForceSimd);
      moebius_transform(vector, n);
      EXPECT_TRUE(bit_equal(scalar, vector))
          << "moebius n=" << n << " threads=" << threads;
    }
  }
  exec::set_threads(saved);
}

TEST(LatticeSimd, ShapleyAndBanzhafBitIdenticalUpTo16Players) {
  ModeGuard guard;
  const int saved = exec::threads();
  for (const int threads : {1, 4}) {
    exec::set_threads(threads);
    for (const int n : {1, 2, 4, 7, 12, 16}) {
      std::vector<double> table = random_table(n, 7000 + n);
      table[0] = 0.0;  // V(empty) must be 0
      const TabularGame tab(n, std::move(table));

      simd::set_mode(simd::Mode::kForceScalar);
      const std::vector<double> phi_scalar = shapley_lattice(tab);
      const std::vector<double> beta_scalar = banzhaf_lattice(tab);
      simd::set_mode(simd::Mode::kForceSimd);
      const std::vector<double> phi_vector = shapley_lattice(tab);
      const std::vector<double> beta_vector = banzhaf_lattice(tab);

      EXPECT_TRUE(bit_equal(phi_scalar, phi_vector))
          << "shapley n=" << n << " threads=" << threads;
      EXPECT_TRUE(bit_equal(beta_scalar, beta_vector))
          << "banzhaf n=" << n << " threads=" << threads;
    }
  }
  exec::set_threads(saved);
}

TEST(LatticeSimd, AutoModeMatchesScalarReference) {
  // Whatever kAuto dispatches to on this host, the answer must be the
  // scalar answer bit for bit.
  ModeGuard guard;
  const int n = 13;
  std::vector<double> scalar = random_table(n, 42);
  std::vector<double> dispatched = scalar;
  simd::set_mode(simd::Mode::kForceScalar);
  moebius_transform(scalar, n);
  simd::set_mode(simd::Mode::kAuto);
  moebius_transform(dispatched, n);
  EXPECT_TRUE(bit_equal(scalar, dispatched));
}

TEST(LatticeSimd, MoebiusInvertsZetaUnderForcedSimd) {
  ModeGuard guard;
  simd::set_mode(simd::Mode::kForceSimd);
  const int n = 12;
  const std::vector<double> original = random_table(n, 3);
  std::vector<double> values = original;
  reference::zeta_transform(values, n);
  moebius_transform(values, n);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(values[i], original[i], 1e-9) << "mask " << i;
  }
}

}  // namespace
}  // namespace fedshare::game
