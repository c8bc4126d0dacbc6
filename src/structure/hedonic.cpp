#include "structure/hedonic.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/limits.hpp"
#include "core/shapley.hpp"

namespace fedshare::structure {

namespace {

// Shapley payoffs of the subgame restricted to `block`, written into
// `payoffs` at the members' global indices. Identical arithmetic to the
// original policy engine — the cache only removes repeat evaluations.
void block_shapley(const game::Game& g, game::Coalition block,
                   std::vector<double>& payoffs) {
  const std::vector<int> members = block.members();
  const auto k = static_cast<int>(members.size());
  const game::FunctionGame sub(k, [&](game::Coalition s) {
    game::Coalition mapped;
    for (int b = 0; b < k; ++b) {
      if (s.contains(b)) {
        mapped = mapped.with(members[static_cast<std::size_t>(b)]);
      }
    }
    return g.value(mapped);
  });
  const std::vector<double> phi = game::shapley_exact(sub);
  for (int b = 0; b < k; ++b) {
    payoffs[static_cast<std::size_t>(members[static_cast<std::size_t>(b)])] =
        phi[static_cast<std::size_t>(b)];
  }
}

// Pareto comparison over the players in `scope`: true iff nobody loses
// and someone strictly gains.
bool pareto_improves(const std::vector<double>& before,
                     const std::vector<double>& after,
                     game::Coalition scope) {
  bool strict = false;
  for (const int p : scope.members()) {
    const auto up = static_cast<std::size_t>(p);
    if (after[up] < before[up] - 1e-9) return false;
    if (after[up] > before[up] + 1e-9) strict = true;
  }
  return strict;
}

void sort_partition(std::vector<game::Coalition>& blocks) {
  std::sort(blocks.begin(), blocks.end(),
            [](game::Coalition a, game::Coalition b) {
              return a.bits() < b.bits();
            });
}

std::vector<double> payoffs_of_blocks(
    const game::Game& g, const std::vector<game::Coalition>& blocks) {
  std::vector<double> payoffs(static_cast<std::size_t>(g.num_players()),
                              0.0);
  for (const auto& block : blocks) block_shapley(g, block, payoffs);
  return payoffs;
}

}  // namespace

std::vector<double> partition_payoffs(
    const game::Game& g, const game::CoalitionStructure& partition) {
  partition.validate(g.num_players());
  return payoffs_of_blocks(g, partition.unions);
}

HedonicResult hedonic_merge_split(const game::Game& g,
                                  const HedonicOptions& options) {
  game::CoalitionStructure singles;
  for (int i = 0; i < g.num_players(); ++i) {
    singles.unions.push_back(game::Coalition::single(i));
  }
  return hedonic_merge_split(g, std::move(singles), options);
}

HedonicResult hedonic_merge_split(const game::Game& g,
                                  game::CoalitionStructure start,
                                  const HedonicOptions& options) {
  const int n = g.num_players();
  if (n < 1) {
    throw std::invalid_argument("hedonic_merge_split: empty game");
  }
  start.validate(n);

  // V(S) is read from `g` itself: callers that want each coalition
  // computed once pass a TabularGame (the CLI and the ablation bench
  // do), so the engine keeps no memo of its own.

  HedonicResult result;
  std::vector<game::Coalition> blocks = start.unions;
  sort_partition(blocks);
  std::vector<double> payoffs = payoffs_of_blocks(g, blocks);

  while (result.iterations < options.max_operations) {
    bool changed = false;

    // Merge phase: every collection of >= 2 blocks, smaller collections
    // first (the Saad et al. merge rule is not restricted to pairs —
    // pairwise merging is too myopic when only larger unions create
    // value, e.g. grand-coalition-only thresholds). Past the
    // enumeration ceiling, deterministic pairwise merges.
    const std::size_t num_blocks = blocks.size();
    const auto block_count = static_cast<std::int64_t>(num_blocks);
    if (num_blocks >= 2 &&
        !limits::exceeds(block_count, limits::kMaxMergeEnumerationBlocks)) {
      std::vector<std::uint32_t> collections;
      for (std::uint32_t mask = 1;
           mask < (std::uint32_t{1} << num_blocks); ++mask) {
        if (__builtin_popcount(mask) >= 2) collections.push_back(mask);
      }
      std::stable_sort(collections.begin(), collections.end(),
                       [](std::uint32_t a, std::uint32_t b) {
                         return __builtin_popcount(a) <
                                __builtin_popcount(b);
                       });
      for (const std::uint32_t mask : collections) {
        game::Coalition merged;
        for (std::size_t j = 0; j < num_blocks; ++j) {
          if ((mask >> j) & 1u) merged = merged.united(blocks[j]);
        }
        std::vector<double> trial = payoffs;
        block_shapley(g, merged, trial);
        if (pareto_improves(payoffs, trial, merged)) {
          std::vector<game::Coalition> next;
          for (std::size_t j = 0; j < num_blocks; ++j) {
            if (!((mask >> j) & 1u)) next.push_back(blocks[j]);
          }
          next.push_back(merged);
          blocks = std::move(next);
          sort_partition(blocks);
          payoffs = std::move(trial);
          changed = true;
          ++result.iterations;
          break;
        }
      }
    } else if (num_blocks >= 2) {
      if (result.note.empty()) {
        result.note =
            limits::refusal("hedonic_merge_split", block_count,
                            limits::kMaxMergeEnumerationBlocks) +
            "; merges were pairwise";
      }
      for (std::size_t a = 0; a < num_blocks && !changed; ++a) {
        for (std::size_t b = a + 1; b < num_blocks && !changed; ++b) {
          const game::Coalition merged = blocks[a].united(blocks[b]);
          std::vector<double> trial = payoffs;
          block_shapley(g, merged, trial);
          if (pareto_improves(payoffs, trial, merged)) {
            std::vector<game::Coalition> next;
            for (std::size_t j = 0; j < num_blocks; ++j) {
              if (j != a && j != b) next.push_back(blocks[j]);
            }
            next.push_back(merged);
            blocks = std::move(next);
            sort_partition(blocks);
            payoffs = std::move(trial);
            changed = true;
            ++result.iterations;
          }
        }
      }
    }
    if (changed) continue;

    // Split phase: every 2-partition of every block, anchored on the
    // block's lowest member so each 2-partition is visited once.
    for (std::size_t a = 0; a < blocks.size() && !changed; ++a) {
      const game::Coalition block = blocks[a];
      if (block.size() < 2) continue;
      const int anchor = block.members().front();
      game::for_each_subset(block.without(anchor), [&](game::Coalition sub) {
        if (changed) return;
        const game::Coalition part1 = sub.with(anchor);
        const game::Coalition part2 = block.minus(part1);
        if (part2.empty()) return;
        std::vector<double> trial = payoffs;
        block_shapley(g, part1, trial);
        block_shapley(g, part2, trial);
        if (pareto_improves(payoffs, trial, block)) {
          blocks[a] = part1;
          blocks.push_back(part2);
          sort_partition(blocks);
          payoffs = std::move(trial);
          changed = true;
          ++result.iterations;
        }
      });
    }
    if (!changed) {
      result.converged = true;
      break;
    }
  }

  result.partition.unions = std::move(blocks);
  result.payoffs = std::move(payoffs);
  return result;
}

bool is_merge_split_stable(const game::Game& g,
                           const game::CoalitionStructure& partition) {
  HedonicOptions probe;
  probe.max_operations = 1;
  const HedonicResult r = hedonic_merge_split(g, partition, probe);
  return r.converged && r.iterations == 0;
}

}  // namespace fedshare::structure
