#include "core/banzhaf.hpp"

#include "core/lattice.hpp"
#include "core/shapley.hpp"

namespace fedshare::game {

std::vector<double> banzhaf_raw(const Game& game) {
  // Lattice kernel: per-player passes in ascending mask order, which is
  // the scalar loop's accumulation sequence — bitwise-neutral rewire.
  return banzhaf_lattice(tabulate(game));
}

std::vector<double> banzhaf_index(const Game& game) {
  return normalize_shares(banzhaf_raw(game));
}

}  // namespace fedshare::game
