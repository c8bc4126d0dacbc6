// Legacy merge-split API, now a thin forwarding shim over the
// structure subsystem's hedonic engine (structure/hedonic.hpp). The
// engine reproduces this module's candidate order exactly — merge
// collections by size then lexicographic, splits anchored on each
// block's lowest member — while reading V(S) from the game as given
// and lifting the block-count ceiling. The historical
// n <= 10 guard is kept here as this API's documented envelope (its
// callers sized their games to it, and its error contract is tested);
// larger games should call structure::hedonic_merge_split directly.
#include "policy/coalition_formation.hpp"

#include <stdexcept>
#include <utility>

#include "structure/hedonic.hpp"

namespace fedshare::policy {

std::vector<double> partition_payoffs(
    const game::Game& g, const game::CoalitionStructure& partition) {
  return structure::partition_payoffs(g, partition);
}

FormationResult merge_split(const game::Game& g, int max_operations) {
  game::CoalitionStructure singles;
  for (int i = 0; i < g.num_players(); ++i) {
    singles.unions.push_back(game::Coalition::single(i));
  }
  return merge_split(g, std::move(singles), max_operations);
}

FormationResult merge_split(const game::Game& g,
                            game::CoalitionStructure start,
                            int max_operations) {
  const int n = g.num_players();
  if (n < 1 || n > 10) {
    throw std::invalid_argument("merge_split: n must be in [1, 10]");
  }
  structure::HedonicOptions options;
  options.max_operations = max_operations;
  structure::HedonicResult r =
      structure::hedonic_merge_split(g, std::move(start), options);
  FormationResult result;
  result.partition = std::move(r.partition);
  result.payoffs = std::move(r.payoffs);
  result.iterations = r.iterations;
  result.converged = r.converged;
  return result;
}

bool is_merge_split_stable(const game::Game& g,
                           const game::CoalitionStructure& partition) {
  return structure::is_merge_split_stable(g, partition);
}

}  // namespace fedshare::policy
