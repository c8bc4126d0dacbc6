// The size contract (core/limits.hpp), one row per guarded call.
//
// Each row probes its call one past the entry (in the entry's own unit)
// and requires a refusal that names the entry: a throw, a recorded skip
// or a note. Where the call at the entry fits in a test, the row also
// requires that it is accepted; the rows that leave it unrun say why.
// The games are FunctionGames, so no row allocates a table past its
// ceiling: every guard fires before the 2^n step it protects.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "cli/runner.hpp"
#include "core/banzhaf.hpp"
#include "core/core_solution.hpp"
#include "core/dividends.hpp"
#include "core/lattice.hpp"
#include "core/limits.hpp"
#include "core/nucleolus.hpp"
#include "core/owen.hpp"
#include "core/properties.hpp"
#include "core/shapley.hpp"
#include "core/sharing.hpp"
#include "core/symmetry.hpp"
#include "io/config.hpp"
#include "market/revenue.hpp"
#include "model/federation.hpp"
#include "model/stochastic_value.hpp"
#include "serve/state.hpp"
#include "structure/csg.hpp"
#include "structure/hedonic.hpp"
#include "verify/audit.hpp"

namespace fedshare {
namespace {

using game::Coalition;
using game::FunctionGame;
using limits::Limit;

// V(S) = |S|^2: superadditive, convex and monotone, so every accepted
// property check passes.
FunctionGame cheap(int n) {
  return FunctionGame(n, [](Coalition s) {
    const double k = s.size();
    return k * k;
  });
}

// What `call` threw, or "" when it returned.
std::string thrown(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// The reason compare_schemes recorded for skipping `scheme`, or "".
std::string skip_reason(const game::SchemeComparison& c,
                        const std::string& scheme) {
  for (const auto& s : c.skipped) {
    if (s.scheme == scheme) return s.reason;
  }
  return "";
}

// The smallest dense game with at least `rows` excess rows (2^n - 2).
int dense_players(int rows) {
  int n = 1;
  while ((1 << n) - 2 < rows) ++n;
  return n;
}

std::vector<double> zeros(int n) {
  return std::vector<double>(static_cast<std::size_t>(n), 0.0);
}

// `n` singleton unions.
game::CoalitionStructure singletons(int n) {
  game::CoalitionStructure s;
  for (int i = 0; i < n; ++i) s.unions.push_back(Coalition::single(i));
  return s;
}

std::vector<model::FacilityConfig> facilities(int n) {
  std::vector<model::FacilityConfig> configs;
  for (int i = 0; i < n; ++i) {
    model::FacilityConfig c;
    c.name = "F" + std::to_string(i);
    c.num_locations = 1;
    configs.push_back(c);
  }
  return configs;
}

model::Federation federation(int n) {
  return model::Federation(model::LocationSpace::disjoint(facilities(n)),
                           model::DemandProfile::uniform(1, 1));
}

// The probe of a call that refuses by throwing: what it threw, or "".
std::function<std::string(int)> throwing(std::function<void(int)> call) {
  return [call](int n) { return thrown([&] { call(n); }); };
}

struct Row {
  std::string call;  // the guarded call, for traces
  Limit limit;
  // The call's refusal at size `n` (in the entry's unit), "" if accepted.
  std::function<std::string(int n)> refusal;
  // Whether the call at the entry runs here (false: see the row).
  bool accept_runs = true;
};

std::vector<Row> rows() {
  using namespace limits;
  const bool kNotRun = false;
  return {
      // 2^n tables. Not run at the entry: a 2^24 table is 128 MiB.
      {"TabularGame", kMaxTablePlayers,
       throwing([](int n) { game::TabularGame(n, {}); }), kNotRun},
      {"tabulate", kMaxTablePlayers,
       throwing([](int n) { (void)game::tabulate(cheap(n)); }), kNotRun},
      {"tabulate_budgeted", kMaxTablePlayers,
       throwing([](int n) { (void)game::tabulate_budgeted(cheap(n), {}); }),
       kNotRun},
      {"all_coalitions", kMaxTablePlayers,
       throwing([](int n) { (void)game::all_coalitions(n); }), kNotRun},
      {"moebius_transform", kMaxTablePlayers, throwing([](int n) {
         std::vector<double> none;
         game::moebius_transform(none, n);
       }),
       kNotRun},
      // n log-space weights: cheap at the entry.
      {"shapley_subset_weights", kMaxTablePlayers,
       throwing([](int n) { (void)game::shapley_subset_weights(n); })},
      {"shapley_exact", kMaxTablePlayers,
       throwing([](int n) { (void)game::shapley_exact(cheap(n)); }), kNotRun},
      {"shapley_exact_budgeted", kMaxTablePlayers, throwing([](int n) {
         (void)game::shapley_exact_budgeted(cheap(n), {});
       }),
       kNotRun},
      // Past the ceiling the cascade answers by Monte Carlo and says why.
      {"resilient_shapley", kMaxTablePlayers,
       [](int n) { return game::resilient_shapley(cheap(n), {}).note; },
       kNotRun},
      {"banzhaf_raw", kMaxTablePlayers,
       throwing([](int n) { (void)game::banzhaf_raw(cheap(n)); }), kNotRun},
      {"harsanyi_dividends", kMaxTablePlayers,
       throwing([](int n) { (void)game::harsanyi_dividends(cheap(n)); }),
       kNotRun},
      {"max_core_violation", kMaxTablePlayers, throwing([](int n) {
         (void)game::max_core_violation(cheap(n), zeros(n));
       }),
       kNotRun},
      // One type: n + 1 orbits, so only the expanded table is large.
      {"expand_orbit_table", kMaxTablePlayers, throwing([](int n) {
         const game::OrbitIndex index(game::PlayerPartition::from_type_of(
             std::vector<int>(static_cast<std::size_t>(n), 0)));
         (void)game::expand_orbit_table(index, zeros(n + 1));
       }),
       kNotRun},
      {"quotient_game", kMaxTablePlayers, throwing([](int n) {
         (void)game::quotient_game(cheap(n), singletons(n));
       }),
       kNotRun},
      {"Federation::build_game", kMaxTablePlayers,
       throwing([](int n) { (void)federation(n).build_game(); }), kNotRun},
      {"Federation::raw_value", kMaxTablePlayers,
       throwing([](int n) { (void)federation(n).raw_value(Coalition()); }),
       kNotRun},

      // n^2 2^n scans. Not run at the entry: 4e8 reads at n = 20.
      {"convexity_violation", kMaxPairScanPlayers,
       throwing([](int n) { (void)game::convexity_violation(cheap(n)); }),
       kNotRun},
      {"monotonicity_violation", kMaxPairScanPlayers,
       throwing([](int n) { (void)game::monotonicity_violation(cheap(n)); }),
       kNotRun},
      {"interaction_index", kMaxPairScanPlayers,
       throwing([](int n) { (void)game::interaction_index(cheap(n)); }),
       kNotRun},
      {"owen_value", kMaxPairScanPlayers, throwing([](int n) {
         (void)game::owen_value(cheap(n), singletons(n));
       }),
       kNotRun},

      {"superadditivity_violation", kMaxDisjointPairPlayers,
       throwing([](int n) {
         (void)game::superadditivity_violation(cheap(n));
       })},

      // Past the ceiling, core membership is a recorded skip.
      {"compare_schemes (core membership)", kMaxCorePlayers, [](int n) {
         return skip_reason(game::compare_schemes(cheap(n), {}, {}),
                            "core membership");
       }},

      // Not run at the entry: the DP walks ~2e8 lattice edges at n = 18.
      {"optimal_structure", kMaxCsgPlayers,
       throwing([](int n) { (void)structure::optimal_structure(cheap(n)); }),
       kNotRun},
      {"brute_force_structure", kMaxPartitionPlayers, throwing([](int n) {
         (void)structure::brute_force_structure(cheap(n));
       })},
      {"shapley_permutations", kMaxPermutationPlayers,
       throwing([](int n) { (void)game::shapley_permutations(cheap(n)); })},
      // Past the ceiling the merge phase pairs blocks and notes why. One
      // operation from the singletons: a merge at `n` blocks.
      {"hedonic_merge_split", kMaxMergeEnumerationBlocks, [](int n) {
         return structure::hedonic_merge_split(cheap(n), {.max_operations = 1})
             .note;
       }},

      // Past the ceiling the audit samples nothing and notes why.
      {"audit_game", kMaxAuditPlayers, [](int n) {
         const verify::AuditReport r =
             verify::audit_game(cheap(n), verify::VerifyOptions{});
         return r.notes.empty() ? std::string() : r.notes[0].detail;
       }},

      // Excess rows, probed on the smallest dense game with entry + 1
      // rows: n = 16, 65534 rows (dense games have 2^n - 2). The game at
      // the entry is the same n = 16, so acceptance is not probed here;
      // Nucleolus.SolvesAtTheExcessRowCeiling solves both formulations at
      // 32766 rows, the largest that fit.
      {"nucleolus", kMaxExcessRows, throwing([](int rows) {
         (void)game::nucleolus(cheap(dense_players(rows)));
       }),
       kNotRun},
      {"least_core", kMaxExcessRows, throwing([](int rows) {
         (void)game::least_core(cheap(dense_players(rows)));
       }),
       kNotRun},
      {"compare_schemes (nucleolus)", kMaxExcessRows,
       [](int rows) {
         return skip_reason(
             game::compare_schemes(cheap(dense_players(rows)), {}, {}),
             "nucleolus");
       },
       kNotRun},

      {"federation_from_config", kMaxFacilities, throwing([](int n) {
         std::string text = "[demand]\ncount = 1\nmin_locations = 1\n\n";
         for (const auto& f : facilities(n)) {
           text += "[facility]\nname = " + f.name + "\nlocations = 1\n\n";
         }
         (void)cli::federation_from_config(io::Config::parse_string(text));
       })},
      // The joins skip their re-solve (a zero node cap): the roster
      // check comes first.
      {"ServiceState::apply (join)", kMaxFacilities, throwing([](int n) {
         serve::ServeOptions options;
         options.track_bounds = false;
         serve::ServiceState state(options);
         for (const auto& f : facilities(n)) {
           serve::FacilityJoin join;
           join.config = f;
           (void)state.apply(serve::Event{join},
                             runtime::ComputeBudget().cap_nodes(0));
         }
       })},
      // Not run at the entry: 4095 simulations.
      {"simulated_game", kMaxFacilities, throwing([](int n) {
         (void)model::simulated_game(
             model::LocationSpace::disjoint(facilities(n)), {},
             sim::SimConfig{});
       }),
       kNotRun},
      // No customers: the 2^12 settlement game has no demand to place.
      {"evaluate_settlement", kMaxFacilities, throwing([](int n) {
         (void)market::evaluate_settlement(
             model::LocationSpace::disjoint(facilities(n)), {},
             market::RevenueModel{});
       })},
  };
}

TEST(Limits, EveryGuardRefusesOnePastItsEntryAndNamesIt) {
  for (const Row& row : rows()) {
    SCOPED_TRACE(row.call);
    const auto entry = static_cast<int>(row.limit.value);
    const std::string past = row.refusal(entry + 1);
    EXPECT_NE(past.find(row.limit.name), std::string::npos)
        << "refusal: \"" << past << "\"";
    if (row.accept_runs) {
      EXPECT_EQ(row.refusal(entry), "");
    }
  }
}

TEST(Limits, EveryEntryHasAGuardedRow) {
  const Limit entries[] = {
      limits::kMaxTablePlayers,       limits::kMaxPairScanPlayers,
      limits::kMaxDisjointPairPlayers, limits::kMaxCorePlayers,
      limits::kMaxCsgPlayers,         limits::kMaxPartitionPlayers,
      limits::kMaxPermutationPlayers, limits::kMaxAuditPlayers,
      limits::kMaxExcessRows,         limits::kMaxFacilities,
      limits::kMaxMergeEnumerationBlocks};
  const std::vector<Row> all = rows();
  for (const Limit& entry : entries) {
    SCOPED_TRACE(std::string(entry.name));
    bool covered = false;
    for (const Row& row : all) covered |= row.limit.name == entry.name;
    EXPECT_TRUE(covered);
  }
}

// The one refusal shape, and the excess-row message that tests, DESIGN
// and README cite.
TEST(Limits, RefusalShape) {
  EXPECT_EQ(limits::refusal("tabulate", 25, limits::kMaxTablePlayers),
            "tabulate: n = 25 exceeds kMaxTablePlayers = 24");
  EXPECT_EQ(game::excess_rows_refusal(65534),
            "65534 excess rows exceed kMaxExcessRows = 32768");
  EXPECT_THROW(limits::require("x", 25, limits::kMaxTablePlayers),
               std::invalid_argument);
  EXPECT_NO_THROW(limits::require("x", 24, limits::kMaxTablePlayers));
}

}  // namespace
}  // namespace fedshare
