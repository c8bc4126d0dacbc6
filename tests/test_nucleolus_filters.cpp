// Differential regression test for the nucleolus tightness filters and
// the working set they run on (core/nucleolus.cpp: slack filter, dual
// filter, batched release, rank decides uniqueness, row generation). The
// reference (nucleolus_reference.hpp) is the classical loop that carries
// every excess row in every LP and runs one aux-max LP for every active
// row and the +/- uniqueness probes every round, where the working-set
// loop reads uniqueness off the fixed rows' rank alone. It solves
// different but equivalent LPs, so on every game of the corpus, for
// both formulations and both simplex engines, it must fix the same
// number of levels and agree on the allocation and every level within
// 1e-12 * max(1, |V(N)|), while solving far fewer LPs. Every answer
// also passes the full-table scan: no coalition's excess exceeds the
// last level unless it sits on an earlier fixed level; and every LP of
// the loop, closure re-solves included, is certified. The dense entry
// point runs the orbit-row loop on the all-singletons partition, so it
// is checked against both the orbit-row reference on that partition and
// the historical mask-row reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cli/runner.hpp"
#include "core/core_solution.hpp"
#include "core/game.hpp"
#include "core/nucleolus.hpp"
#include "core/symmetry.hpp"
#include "io/config.hpp"
#include "lp/simplex.hpp"
#include "model/federation.hpp"
#include "nucleolus_reference.hpp"
#include "sim/rng.hpp"
#include "verify/audit.hpp"
#include "verify/certified.hpp"

namespace fedshare::game {
namespace {

// --- Corpus ----------------------------------------------------------------

enum class Family { kNonnegDividend, kRandom, kInteger, kWeightedThreshold };

const char* name_of(Family f) {
  switch (f) {
    case Family::kNonnegDividend: return "nonneg-dividend";
    case Family::kRandom: return "random";
    case Family::kInteger: return "integer";
    case Family::kWeightedThreshold: return "weighted-threshold";
  }
  return "?";
}

constexpr Family kFamilies[] = {Family::kNonnegDividend, Family::kRandom,
                                Family::kInteger, Family::kWeightedThreshold};

TabularGame mask_game(Family family, int n, sim::Xoshiro256& rng) {
  const std::uint64_t size = std::uint64_t{1} << n;
  std::vector<double> v(size, 0.0);
  switch (family) {
    case Family::kNonnegDividend: {
      // Sparse nonnegative Harsanyi dividends, summed up the lattice.
      for (std::uint64_t mask = 1; mask < size; ++mask) {
        v[mask] = rng.below(3) == 0 ? rng.uniform(0.0, 2.0) : 0.0;
      }
      for (int i = 0; i < n; ++i) {
        for (std::uint64_t mask = 1; mask < size; ++mask) {
          if ((mask >> i) & 1u) v[mask] += v[mask ^ (std::uint64_t{1} << i)];
        }
      }
      break;
    }
    case Family::kRandom:
      for (std::uint64_t mask = 1; mask < size; ++mask) {
        v[mask] = rng.uniform(0.0, 1.0) * __builtin_popcountll(mask);
      }
      break;
    case Family::kInteger:
      for (std::uint64_t mask = 1; mask < size; ++mask) {
        v[mask] = static_cast<double>(
            rng.below(3 * static_cast<std::uint64_t>(
                              __builtin_popcountll(mask)) + 1));
      }
      break;
    case Family::kWeightedThreshold: {
      std::vector<int> w(static_cast<std::size_t>(n));
      int total = 0;
      for (int& wi : w) {
        wi = 1 + static_cast<int>(rng.below(5));
        total += wi;
      }
      const int quota =
          total / 2 + 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(total / 2 + 1)));
      for (std::uint64_t mask = 1; mask < size; ++mask) {
        int weight = 0;
        for (int i = 0; i < n; ++i) {
          if ((mask >> i) & 1u) weight += w[static_cast<std::size_t>(i)];
        }
        v[mask] = weight >= quota ? 1.0 : 0.0;
      }
      break;
    }
  }
  return TabularGame(n, std::move(v));
}

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Hash of a per-type count vector under `seed`: the deterministic
// randomness of the typed families, so V depends on counts only.
std::uint64_t count_hash(std::uint64_t seed, const std::vector<int>& c) {
  std::uint64_t h = mix(seed);
  for (const int x : c) h = mix(h ^ static_cast<std::uint64_t>(x + 1));
  return h;
}

double binom(int n, int k) {
  double r = 1.0;
  for (int i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

// A game symmetric under `part` by construction: V reads per-type counts.
FunctionGame typed_game(Family family, const PlayerPartition& part,
                        std::uint64_t seed) {
  return FunctionGame(part.num_players(), [=](Coalition s) {
    const auto tcount = static_cast<std::size_t>(part.num_types());
    std::vector<int> c(tcount, 0);
    for (const int i : s.members()) {
      ++c[static_cast<std::size_t>(part.type_of(i))];
    }
    int total = 0;
    for (const int x : c) total += x;
    if (total == 0) return 0.0;
    const std::uint64_t h = count_hash(seed, c);
    switch (family) {
      case Family::kNonnegDividend: {
        // Sum over sub-count vectors d of dividend(d) times the number
        // of sub-coalitions with those counts.
        double acc = 0.0;
        std::vector<int> d(tcount, 0);
        while (true) {
          std::size_t t = 0;
          while (t < tcount && d[t] == c[t]) d[t++] = 0;
          if (t == tcount) break;
          ++d[t];
          const std::uint64_t dh = count_hash(seed, d);
          if (dh % 3 != 0) continue;
          double ways = 1.0;
          for (std::size_t u = 0; u < tcount; ++u) ways *= binom(c[u], d[u]);
          acc += ways * static_cast<double>(dh % 1024) / 512.0;
        }
        return acc;
      }
      case Family::kRandom:
        return total * static_cast<double>(h % 100003) / 100003.0;
      case Family::kInteger:
        return static_cast<double>(
            h % static_cast<std::uint64_t>(3 * total + 1));
      case Family::kWeightedThreshold: {
        int weight = 0;
        int all = 0;
        for (std::size_t t = 0; t < tcount; ++t) {
          const int w = 1 + static_cast<int>(mix(seed + t) % 5);
          weight += w * c[t];
          all += w * part.multiplicity(static_cast<int>(t));
        }
        return weight >= all / 2 + 1 ? 1.0 : 0.0;
      }
    }
    return 0.0;
  });
}

PlayerPartition typed_partition(int n, sim::Xoshiro256& rng) {
  // 2..3 types, at least one repeated, so the quotient is non-trivial.
  const int types = 2 + static_cast<int>(rng.below(2));
  std::vector<int> type_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    type_of[static_cast<std::size_t>(i)] =
        i < types ? i : static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(types)));
  }
  return PlayerPartition::from_type_of(type_of);
}

lp::SimplexOptions with_engine(lp::SolverKind kind) {
  lp::SimplexOptions options;
  options.solver = kind;
  return options;
}

// Agreement within 1e-12 * scale, scale = max(1, |V(N)|), on the same
// number of levels: the tolerance of results whose LPs carry the same
// rows in a different order, or a working set of them.
void expect_close(const NucleolusResult& got, const NucleolusResult& want,
                  double grand_value, const std::string& what) {
  const double scale = std::max(1.0, std::abs(grand_value));
  ASSERT_TRUE(want.solved) << what;
  ASSERT_TRUE(got.solved) << what;
  ASSERT_EQ(got.allocation.size(), want.allocation.size()) << what;
  for (std::size_t i = 0; i < want.allocation.size(); ++i) {
    EXPECT_LE(std::abs(got.allocation[i] - want.allocation[i]),
              1e-12 * scale)
        << what << " player " << i;
  }
  ASSERT_EQ(got.levels.size(), want.levels.size()) << what;
  for (std::size_t r = 0; r < want.levels.size(); ++r) {
    EXPECT_LE(std::abs(got.levels[r] - want.levels[r]), 1e-12 * scale)
        << what << " round " << r;
  }
  EXPECT_EQ(got.excess_rows, want.excess_rows) << what;
}

// The full-table postcondition, checked from outside the loop: at the
// answer every coalition's excess V(S) - x(S) is at most the last level,
// or sits on one of the earlier levels, where a round fixed it.
void expect_excesses_within_levels(const NucleolusResult& r,
                                   const TabularGame& g,
                                   const std::string& what) {
  ASSERT_TRUE(r.solved) << what;
  ASSERT_FALSE(r.levels.empty()) << what;
  const double tol = 1e-9 * std::max(1.0, std::abs(g.grand_value()));
  const std::uint64_t grand = (std::uint64_t{1} << g.num_players()) - 1;
  for (std::uint64_t mask = 1; mask < grand; ++mask) {
    double x = 0.0;
    for (int i = 0; i < g.num_players(); ++i) {
      if ((mask >> i) & 1u) x += r.allocation[static_cast<std::size_t>(i)];
    }
    const double excess = g.values()[mask] - x;
    if (excess <= r.levels.back() + tol) continue;
    const bool on_level = std::any_of(
        r.levels.begin(), r.levels.end(),
        [&](double level) { return std::abs(excess - level) <= tol; });
    EXPECT_TRUE(on_level) << what << " coalition " << mask << " excess "
                          << excess << " above the last level "
                          << r.levels.back();
  }
}

// Reruns `solve` with every LP certified at --verify full: each closure
// re-solve is an LP of its own, so the observer must see exactly
// lps_solved solves, none failing.
template <typename Solve>
void expect_every_lp_certified(lp::SimplexOptions options, const Solve& solve,
                               const std::string& what) {
  verify::VerifyOptions verify_options;
  verify_options.level = verify::VerifyLevel::kFull;
  verify::CertifyingObserver observer(verify_options, options);
  options.observer = &observer;
  const NucleolusResult r = solve(options);
  ASSERT_TRUE(r.solved) << what;
  const auto stats = observer.stats();
  EXPECT_EQ(stats.solves, r.lps_solved) << what;
  EXPECT_EQ(stats.failures, 0u) << what;
}

// The unfiltered orbit-row loop on the all-singletons partition: the
// row layout the dense entry point runs on.
NucleolusResult identity_reference(const TabularGame& g,
                                   const lp::SimplexOptions& options) {
  const QuotientGame identity(g, PlayerPartition::identity(g.num_players()));
  return reference::unfiltered_nucleolus_quotient(identity, options);
}

class NucleolusFilters : public ::testing::TestWithParam<Family> {};

// 9 seeds per n = 2..7 for each of the four families: 216 games, each
// run on the revised engine. The dense engine runs every game up to
// n = 6; at n = 7 one unfiltered dense-engine run alone takes seconds.
// Within 1e-12 * scale of the identity-partition orbit reference and of
// the mask reference, whose LP count is the baseline. (The name dates
// from the full-row loop, which matched the orbit reference bitwise.)
TEST_P(NucleolusFilters, MaskLoopMatchesUnfilteredBitwise) {
  const Family family = GetParam();
  sim::Xoshiro256 rng(0xF117E25 + static_cast<std::uint64_t>(family));
  std::uint64_t filtered_lps = 0;
  std::uint64_t reference_lps = 0;
  for (int n = 2; n <= 7; ++n) {
    for (int seed = 0; seed < 9; ++seed) {
      const TabularGame g = mask_game(family, n, rng);
      for (const auto kind :
           {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
        if (kind == lp::SolverKind::kDense && n == 7) continue;
        const auto options = with_engine(kind);
        const NucleolusResult want =
            reference::unfiltered_nucleolus(g, options);
        const NucleolusResult got = nucleolus(g, options);
        const std::string what = std::string(name_of(family)) + " n=" +
                                 std::to_string(n) + " seed " +
                                 std::to_string(seed) + " " +
                                 lp::to_string(kind);
        expect_close(got, identity_reference(g, options), g.grand_value(),
                     what);
        expect_close(got, want, g.grand_value(), what);
        expect_excesses_within_levels(got, g, what);
        expect_every_lp_certified(
            options,
            [&](const lp::SimplexOptions& o) { return nucleolus(g, o); },
            what);
        filtered_lps += got.lps_solved;
        reference_lps += want.lps_solved;
      }
    }
  }
  EXPECT_LT(filtered_lps * 5, reference_lps)
      << filtered_lps << " filtered vs " << reference_lps << " reference LPs";
}

// 10 typed games per n = 3..7 for each family (200 in all), both
// engines on every game, within 1e-12 * scale of the orbit reference.
TEST_P(NucleolusFilters, OrbitLoopMatchesUnfilteredBitwise) {
  const Family family = GetParam();
  sim::Xoshiro256 rng(0x0B17 + static_cast<std::uint64_t>(family));
  std::uint64_t filtered_lps = 0;
  std::uint64_t reference_lps = 0;
  for (int n = 3; n <= 7; ++n) {
    for (int seed = 0; seed < 10; ++seed) {
      const PlayerPartition part = typed_partition(n, rng);
      const FunctionGame base = typed_game(family, part, rng.next());
      const QuotientGame quotient(base, part);
      const TabularGame full = tabulate(base);
      for (const auto kind :
           {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
        const auto options = with_engine(kind);
        const NucleolusResult want =
            reference::unfiltered_nucleolus_quotient(quotient, options);
        const NucleolusResult got = nucleolus_quotient(quotient, options);
        const std::string what = std::string(name_of(family)) + " n=" +
                                 std::to_string(n) + " types " +
                                 std::to_string(part.num_types()) +
                                 " seed " + std::to_string(seed) + " " +
                                 lp::to_string(kind);
        expect_close(got, want, full.grand_value(), what);
        expect_excesses_within_levels(got, full, what);
        expect_every_lp_certified(
            options,
            [&](const lp::SimplexOptions& o) {
              return nucleolus_quotient(quotient, o);
            },
            what);
        filtered_lps += got.lps_solved;
        reference_lps += want.lps_solved;
      }
    }
  }
  EXPECT_LT(filtered_lps * 5, reference_lps)
      << filtered_lps << " filtered vs " << reference_lps << " reference LPs";
}

// least_core is the working-set loop's first round, stopped there: on
// every game of the mask corpus, both engines, its epsilon is the
// full-row loop's first level within 1e-12 * scale, and its dual weights
// certify that level from the table alone (verify::least_core_bound).
// The reference runs on the revised engine, whose unfiltered loop
// finishes in well under a second at n = 7.
TEST_P(NucleolusFilters, LeastCoreIsTheFullRowFirstLevel) {
  const Family family = GetParam();
  sim::Xoshiro256 rng(0x1EA57C0 + static_cast<std::uint64_t>(family));
  for (int n = 2; n <= 7; ++n) {
    for (int seed = 0; seed < 9; ++seed) {
      const TabularGame g = mask_game(family, n, rng);
      const double scale = std::max(1.0, std::abs(g.grand_value()));
      const NucleolusResult want = reference::unfiltered_nucleolus(
          g, with_engine(lp::SolverKind::kRevised));
      ASSERT_TRUE(want.solved);
      for (const auto kind :
           {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
        const std::string what = std::string(name_of(family)) + " n=" +
                                 std::to_string(n) + " seed " +
                                 std::to_string(seed) + " " +
                                 lp::to_string(kind);
        const LeastCoreResult got = least_core(g, with_engine(kind));
        ASSERT_TRUE(got.solved) << what;
        EXPECT_LE(std::abs(got.epsilon - want.levels[0]), 1e-12 * scale)
            << what;
        const verify::ExcessBound bound =
            verify::least_core_bound(g, got.weights, 1e-9);
        ASSERT_EQ(bound.rejected, "") << what;
        EXPECT_LE(std::abs(bound.bound - got.epsilon), 1e-9 * scale) << what;
      }
    }
  }
}

// The dual filter's threshold follows SimplexOptions.tolerance (kept
// 100x above it); a raised and a lowered engine tolerance must still
// reproduce the unfiltered loops run at that same tolerance, on both
// formulations and both engines.
TEST_P(NucleolusFilters, MatchesUnfilteredAtNonDefaultTolerance) {
  const Family family = GetParam();
  sim::Xoshiro256 rng(0x70105 + static_cast<std::uint64_t>(family));
  for (const auto& [tolerance, label] :
       {std::pair{1e-7, "1e-7"}, std::pair{1e-11, "1e-11"}}) {
    for (int n = 3; n <= 6; ++n) {
      for (int seed = 0; seed < 3; ++seed) {
        const TabularGame g = mask_game(family, n, rng);
        const PlayerPartition part = typed_partition(n, rng);
        const FunctionGame typed = typed_game(family, part, rng.next());
        const QuotientGame quotient(typed, part);
        for (const auto kind :
             {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
          lp::SimplexOptions options = with_engine(kind);
          options.tolerance = tolerance;
          const std::string what =
              std::string(name_of(family)) + " n=" + std::to_string(n) +
              " seed " + std::to_string(seed) + " " + lp::to_string(kind) +
              " tolerance " + label;
          const NucleolusResult mask = nucleolus(g, options);
          expect_close(mask, identity_reference(g, options), g.grand_value(),
                       "mask " + what);
          expect_close(mask, reference::unfiltered_nucleolus(g, options),
                       g.grand_value(), "mask " + what);
          expect_excesses_within_levels(mask, g, "mask " + what);
          const NucleolusResult orbit = nucleolus_quotient(quotient, options);
          const TabularGame full = tabulate(typed);
          expect_close(
              orbit,
              reference::unfiltered_nucleolus_quotient(quotient, options),
              full.grand_value(), "orbit " + what);
          expect_excesses_within_levels(orbit, full, "orbit " + what);
        }
      }
    }
  }
}

// A federation of n facilities, facility i with locations(i) locations
// and units(i) units, under the default report's two demand classes.
template <typename Locations, typename Units>
TabularGame federation_game(int n, Locations locations, Units units) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "[facility]\nname = F" + std::to_string(i) +
            "\nlocations = " + std::to_string(locations(i)) +
            "\nunits = " + std::to_string(units(i)) + "\n\n";
  }
  text +=
      "[demand]\ncount = 20\nmin_locations = 300\n\n"
      "[demand]\ncount = 5\nmin_locations = 900\nexponent = 1.2\n";
  return cli::federation_from_config(io::Config::parse_string(text))
      .build_game();
}

// n distinct facilities (bench/perf_nucleolus's hetero_game): the dense
// path of `fedshare_cli <config>`, where no two players are
// interchangeable.
TabularGame hetero_game(int n) {
  return federation_game(
      n, [](int i) { return 130 + 110 * i; }, [](int i) { return i % 2 + 1; });
}

// Heterogeneous n = 8 against the unfiltered orbit reference on the
// all-singletons partition: 254 rows, a working set of a few dozen.
void expect_hetero_eight_matches_unfiltered(lp::SolverKind kind) {
  const TabularGame g = hetero_game(8);
  const auto options = with_engine(kind);
  const NucleolusResult got = nucleolus(g, options);
  const std::string what = std::string("hetero n=8 ") + lp::to_string(kind);
  expect_close(got, identity_reference(g, options), g.grand_value(), what);
  expect_excesses_within_levels(got, g, what);
}

TEST(NucleolusWorkingSet, HeteroEightMatchesUnfilteredDense) {
  expect_hetero_eight_matches_unfiltered(lp::SolverKind::kDense);
}

TEST(NucleolusWorkingSet, HeteroEightMatchesUnfilteredRevised) {
  expect_hetero_eight_matches_unfiltered(lp::SolverKind::kRevised);
}

// Rank decides uniqueness: a round ends the loop when efficiency and the
// fixed rows reach full rank, and otherwise the next round runs; no LP
// asks whether the optimal face is a point. Two hand-checked
// three-player games pin the allocation, the levels and the LP count on
// the default engine.
//
// Every pair worth 1, V(N) = 1.2: the three pair rows are tight at
// eps = 0.2 with duals 1/3 each, so the dual filter fixes them and with
// efficiency they reach rank 3 after one LP. x = (0.4, 0.4, 0.4).
TEST(NucleolusRankTermination, FirstFaceIsAPointAfterOneLp) {
  const TabularGame g(3, {0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.2});
  const NucleolusResult r = nucleolus(g);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.lps_solved, 1u);
  ASSERT_EQ(r.levels.size(), 1u);
  EXPECT_NEAR(r.levels[0], 0.2, 1e-12);
  for (const double x : r.allocation) EXPECT_NEAR(x, 0.4, 1e-12);
}

// Only {0, 1} is worth anything, V({0, 1}) = V(N) = 1. Round one reaches
// eps = 0 on the segment x = (t, 1 - t, 0), 0 <= t <= 1, and fixes the
// rows of {0, 1} and {2}, rank 2 with efficiency. One of the two is
// dual-tight; the other is efficiency less it, so the span filter fixes
// it without a release pass: round one takes one LP. Round two splits
// the pair's value: eps = -0.5 at x = (0.5, 0.5, 0), where the singleton
// rows of 0 and 1 reach rank 3.
TEST(NucleolusRankTermination, FirstFaceIsASegmentSoASecondRoundRuns) {
  const TabularGame g(3, {0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0});
  const NucleolusResult r = nucleolus(g);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.lps_solved, 2u);
  ASSERT_EQ(r.levels.size(), 2u);
  EXPECT_NEAR(r.levels[0], 0.0, 1e-12);
  EXPECT_NEAR(r.levels[1], -0.5, 1e-12);
  ASSERT_EQ(r.allocation.size(), 3u);
  EXPECT_NEAR(r.allocation[0], 0.5, 1e-12);
  EXPECT_NEAR(r.allocation[1], 0.5, 1e-12);
  EXPECT_NEAR(r.allocation[2], 0.0, 1e-12);
}

// Retirement: from the second round on, an active row in the span of
// efficiency and the fixed rows has a constant excess and takes no LP;
// the loop lists it as a level only where the classical loop would.
//
// The typed n = 8 federation of configs/typed8.ini on the dense path: 25
// levels, of which only 3 take an LP round (rank 1 -> 3 -> 7 -> 8); the
// other 22 are retired rows' excesses. The classical loop spends a round
// on each. 9 LPs in all, closure re-solves included, against 54 when
// every level took its LP round. The reference runs on the dense
// engine, whose started probes share one workspace: its 5 728 LPs take
// about half a second, against four seconds on the revised engine.
TEST(NucleolusRetirement, TypedFederationEightListsEveryLevel) {
  const TabularGame g = federation_game(
      8, [](int i) { return 100 * (i % 4 + 1); },
      [](int i) { return i % 4 % 2 + 1; });
  const NucleolusResult want =
      identity_reference(g, with_engine(lp::SolverKind::kDense));
  ASSERT_EQ(want.levels.size(), 25u);
  for (const auto kind : {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
    const NucleolusResult got = nucleolus(g, with_engine(kind));
    const std::string what =
        std::string("typed federation n=8 ") + lp::to_string(kind);
    expect_close(got, want, g.grand_value(), what);
    expect_excesses_within_levels(got, g, what);
    if (kind == lp::SolverKind::kDense) {
      EXPECT_EQ(got.lps_solved, 9u);
    }
  }
}

// Four players; players 0 and 1 are worth 0.4 alone and {2, 3} 0.5, so
// round one reaches eps = 0.1 at x = (0.3, 0.3, s, 0.4 - s), fixing {0},
// {1} and {2, 3} (rank 3). In their span, {0, 2, 3} and {1, 2, 3} have
// the constant excesses 0.6 - 0.7 = -0.1 and 0.2 - 0.7 = -0.5: both are
// retired at round two's start. Round two splits 0.4 between players 2
// and 3 at eps = -0.2 and reaches full rank. The classical loop gives
// -0.1 a round of its own but stops before -0.5: levels 0.1, -0.1, -0.2.
TEST(NucleolusRetirement, RetiredExcessBelowTheLastLevelIsNoLevel) {
  std::vector<double> v(16, 0.0);
  v[0b0001] = 0.4;  // {0}
  v[0b0010] = 0.4;  // {1}
  v[0b0011] = 0.1;  // {0, 1}
  v[0b1100] = 0.5;  // {2, 3}
  v[0b1101] = 0.6;  // {0, 2, 3}
  v[0b1110] = 0.2;  // {1, 2, 3}
  v[0b1111] = 1.0;
  const TabularGame g(4, std::move(v));
  for (const auto kind : {lp::SolverKind::kDense, lp::SolverKind::kRevised}) {
    const auto options = with_engine(kind);
    const NucleolusResult got = nucleolus(g, options);
    const std::string what = std::string("retired ") + lp::to_string(kind);
    expect_close(got, reference::unfiltered_nucleolus(g, options),
                 g.grand_value(), what);
    ASSERT_EQ(got.levels.size(), 3u) << what;
    EXPECT_NEAR(got.levels[0], 0.1, 1e-12) << what;
    EXPECT_NEAR(got.levels[1], -0.1, 1e-12) << what;
    EXPECT_NEAR(got.levels[2], -0.2, 1e-12) << what;
    const std::vector<double> want = {0.3, 0.3, 0.2, 0.2};
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(got.allocation[i], want[i], 1e-12) << what << " " << i;
    }
  }
}

// One type: its efficiency row alone has full rank, so every proper
// orbit's excess is constant from the start. No row is retired before
// the first LP, as the classical loop runs that round and stops; every
// other constant excess stays unlisted.
TEST(NucleolusRetirement, NoRetirementBeforeTheFirstRound) {
  const FunctionGame squares(5, [](Coalition s) {
    return static_cast<double>(s.size() * s.size());
  });
  const QuotientGame one_type(squares,
                              PlayerPartition::from_type_of({0, 0, 0, 0, 0}));
  const NucleolusResult got = nucleolus_quotient(one_type);
  expect_close(got,
               reference::unfiltered_nucleolus_quotient(
                   one_type, with_engine(lp::SolverKind::kDense)),
               25.0, "one type");
  EXPECT_EQ(got.lps_solved, 1u);
  ASSERT_EQ(got.levels.size(), 1u);
  for (const double x : got.allocation) EXPECT_DOUBLE_EQ(x, 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, NucleolusFilters, ::testing::ValuesIn(kFamilies),
    [](const ::testing::TestParamInfo<Family>& info) {
      std::string name = name_of(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace fedshare::game
