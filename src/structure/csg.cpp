#include "structure/csg.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/limits.hpp"
#include "exec/pool.hpp"

namespace fedshare::structure {

namespace {

// Masks per parallel chunk of one DP level. The per-mask body is a
// submask scan (tens to thousands of adds), so moderately sized chunks
// amortise the scheduling without starving the stealing.
constexpr std::uint64_t kDpChunk = 32;

game::CoalitionStructure singleton_structure(int n) {
  game::CoalitionStructure s;
  for (int i = 0; i < n; ++i) {
    s.unions.push_back(game::Coalition::single(i));
  }
  return s;
}

// Blocks ordered by lowest member — the canonical presentation every
// engine in this module emits (for disjoint blocks this is the order
// the anchored DP reconstruction produces naturally).
void sort_blocks_canonical(std::vector<game::Coalition>& blocks) {
  std::sort(blocks.begin(), blocks.end(),
            [](game::Coalition a, game::Coalition b) {
              return (a.bits() & -a.bits()) < (b.bits() & -b.bits());
            });
}

// The canonical back-to-front fold over blocks already in canonical
// order: V(B_1) + (V(B_2) + (... + 0)).
double fold_welfare(const std::vector<double>& block_values) {
  double acc = 0.0;
  for (auto it = block_values.rbegin(); it != block_values.rend(); ++it) {
    acc = *it + acc;
  }
  return acc;
}

StructureResult degraded(game::CoalitionStructure structure, double welfare,
                         const runtime::ComputeBudget& budget,
                         std::uint64_t evaluated) {
  StructureResult r;
  r.structure = std::move(structure);
  r.welfare = welfare;
  r.complete = false;
  (void)budget.exhausted();
  r.stop = budget.stop_reason();
  r.coalitions_evaluated = evaluated;
  return r;
}

}  // namespace

std::optional<StructureMode> structure_mode_from_string(
    const std::string& text) {
  if (text == "off") return StructureMode::kOff;
  if (text == "optimal") return StructureMode::kOptimal;
  if (text == "hedonic") return StructureMode::kHedonic;
  return std::nullopt;
}

double structure_welfare(const game::Game& g,
                         const game::CoalitionStructure& partition) {
  partition.validate(g.num_players());
  std::vector<game::Coalition> blocks = partition.unions;
  sort_blocks_canonical(blocks);
  std::vector<double> values;
  values.reserve(blocks.size());
  for (const auto& b : blocks) values.push_back(g.value(b));
  return fold_welfare(values);
}

StructureResult optimal_structure(const game::Game& g,
                                  const runtime::ComputeBudget& budget) {
  const int n = g.num_players();
  if (n < 1) throw std::invalid_argument("optimal_structure: n < 1");
  limits::require("optimal_structure", n, limits::kMaxCsgPlayers);
  const std::uint64_t used_before = budget.used();

  // Incumbent phase: the two polynomial-cost candidate structures,
  // evaluated serially in a fixed order so a mid-phase trip yields the
  // same partial result at any thread count.
  std::vector<double> single_values;
  single_values.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto v = g.value_budgeted(game::Coalition::single(i), budget);
    if (!v) {
      return degraded(singleton_structure(n), fold_welfare(single_values),
                      budget, budget.used() - used_before);
    }
    single_values.push_back(*v);
  }
  const double singles_welfare = fold_welfare(single_values);
  const auto grand_value =
      g.value_budgeted(game::Coalition::grand(n), budget);
  if (!grand_value) {
    return degraded(singleton_structure(n), singles_welfare, budget,
                    budget.used() - used_before);
  }
  game::CoalitionStructure incumbent;
  double incumbent_welfare;
  if (*grand_value >= singles_welfare) {
    incumbent.unions.push_back(game::Coalition::grand(n));
    incumbent_welfare = *grand_value;
  } else {
    incumbent = singleton_structure(n);
    incumbent_welfare = singles_welfare;
  }

  // Value phase: materialise the full table under the budget (free for
  // tabular games and warm caches; the parallel driver's node-cap
  // verdict matches a serial run, so complete-vs-degraded is
  // thread-independent).
  const auto tab = game::tabulate_budgeted(g, budget);
  if (!tab) {
    return degraded(std::move(incumbent), incumbent_welfare, budget,
                    budget.used() - used_before);
  }
  const std::vector<double>& v = tab->values();

  // DP phase: pure combination over the materialised table — no budget
  // charges (the charging rule counts V(S) materialisations, and every
  // one already happened). Masks are grouped by popcount level; within
  // a level every mask writes only its own slots, so the parallel
  // schedule is unobservable.
  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> best(count, 0.0);
  std::vector<std::uint64_t> choice(count, 0);
  std::vector<std::vector<std::uint64_t>> levels(
      static_cast<std::size_t>(n) + 1);
  for (std::uint64_t mask = 1; mask < count; ++mask) {
    levels[static_cast<std::size_t>(__builtin_popcountll(mask))].push_back(
        mask);
  }
  StructureResult result;
  for (int level = 1; level <= n; ++level) {
    const auto& masks = levels[static_cast<std::size_t>(level)];
    exec::parallel_for(0, masks.size(), kDpChunk,
                       [&](const exec::ChunkRange& r) {
      for (std::uint64_t idx = r.begin; idx < r.end; ++idx) {
        const std::uint64_t mask = masks[idx];
        const std::uint64_t anchor = mask & (~mask + 1);
        const std::uint64_t rest = mask ^ anchor;
        // Whole-of-S first, then every proper anchored first block in
        // ascending submask order; strictly-greater updates fix the
        // tie-break independent of scheduling.
        double best_here = v[mask];
        std::uint64_t choice_here = mask;
        std::uint64_t sub = 0;
        while (sub != rest) {  // sub == rest is the whole-of-S case
          const std::uint64_t first = sub | anchor;
          const double candidate = v[first] + best[mask ^ first];
          if (candidate > best_here) {
            best_here = candidate;
            choice_here = first;
          }
          sub = (sub - rest) & rest;  // next submask of rest
        }
        best[mask] = best_here;
        choice[mask] = choice_here;
      }
      return true;
    });
  }
  // (3^n + 1)/2 - 2^n anchored proper splits + 2^n - 1 whole-of-S
  // candidates, counted arithmetically (the sweep never skips one).
  std::uint64_t pow3 = 1;
  for (int i = 0; i < n; ++i) pow3 *= 3;
  result.splits_considered = (pow3 + 1) / 2 - 1;

  // Reconstruct: repeatedly peel the chosen first block; the anchor
  // walk emits blocks ordered by lowest member.
  std::uint64_t cursor = count - 1;
  while (cursor != 0) {
    const std::uint64_t first = choice[cursor];
    result.structure.unions.push_back(game::Coalition::from_bits(first));
    cursor ^= first;
  }
  result.welfare = best[count - 1];
  result.coalitions_evaluated = budget.used() - used_before;
  return result;
}

StructureResult brute_force_structure(const game::Game& g) {
  const int n = g.num_players();
  if (n < 1) throw std::invalid_argument("brute_force_structure: n < 1");
  limits::require("brute_force_structure", n, limits::kMaxPartitionPlayers);
  std::optional<game::TabularGame> storage;
  const std::vector<double>& v =
      game::borrow_or_tabulate(g, {}, storage)->values();

  StructureResult result;
  result.welfare = 0.0;
  bool have_best = false;
  std::vector<std::uint64_t> best_blocks;
  std::vector<std::uint64_t> blocks;  // recursion state, canonical order
  std::uint64_t enumerated = 0;

  // Restricted-growth recursion: player p joins an existing block or
  // opens a new one (blocks stay ordered by lowest member, so the leaf
  // fold is the canonical one).
  const auto recurse = [&](const auto& self, int p) -> void {
    if (p == n) {
      ++enumerated;
      double acc = 0.0;
      for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
        acc = v[*it] + acc;
      }
      if (!have_best || acc > result.welfare) {
        have_best = true;
        result.welfare = acc;
        best_blocks = blocks;
      }
      return;
    }
    const std::uint64_t bit = std::uint64_t{1} << p;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      blocks[b] |= bit;
      self(self, p + 1);
      blocks[b] ^= bit;
    }
    blocks.push_back(bit);
    self(self, p + 1);
    blocks.pop_back();
  };
  recurse(recurse, 0);

  for (const std::uint64_t b : best_blocks) {
    result.structure.unions.push_back(game::Coalition::from_bits(b));
  }
  result.splits_considered = enumerated;
  return result;
}

}  // namespace fedshare::structure
