#include "core/symmetry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "core/lattice.hpp"
#include "core/limits.hpp"
#include "exec/pool.hpp"

namespace fedshare::game {

namespace {

// splitmix64, as in core/shapley.cpp: deterministic oracle sampling
// without dragging sim/rng.hpp into core.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) noexcept {
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }
};

// Masks per parallel chunk when expanding an orbit table to the full
// lattice (a pure copy through orbit_of).
constexpr std::uint64_t kExpandChunk = 1u << 12;

// Orbits per parallel chunk when materialising orbit values (each slot
// is an LP solve in the federation model — keep chunks small so the
// pool balances).
constexpr std::uint64_t kOrbitChunk = 4;

// Whether swapping players a and b across the boundary of `samples`
// random coalitions leaves V unchanged up to `tolerance` (relative to
// 1 + |V|).
bool pair_symmetric(const Game& game, int a, int b, int samples,
                    std::uint64_t seed, double tolerance) {
  const std::uint64_t all = Coalition::grand(game.num_players()).bits();
  const std::uint64_t bit_a = std::uint64_t{1} << a;
  const std::uint64_t bit_b = std::uint64_t{1} << b;
  SplitMix64 rng{seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                     a * 64 + b + 1))};
  for (int s = 0; s < samples; ++s) {
    const std::uint64_t mask = rng.next() & all;
    const std::uint64_t with_a = (mask | bit_a) & ~bit_b;
    const std::uint64_t with_b = (mask | bit_b) & ~bit_a;
    const double va = game.value(Coalition::from_bits(with_a));
    const double vb = game.value(Coalition::from_bits(with_b));
    if (std::abs(va - vb) > tolerance * (1.0 + std::abs(va))) return false;
  }
  return true;
}

}  // namespace

std::optional<SymmetryMode> symmetry_mode_from_string(
    const std::string& text) {
  if (text == "off") return SymmetryMode::kOff;
  if (text == "auto") return SymmetryMode::kAuto;
  if (text == "exact") return SymmetryMode::kExact;
  return std::nullopt;
}

const char* to_string(SymmetryMode mode) {
  switch (mode) {
    case SymmetryMode::kOff:
      return "off";
    case SymmetryMode::kAuto:
      return "auto";
    case SymmetryMode::kExact:
      return "exact";
  }
  return "off";
}

PlayerPartition PlayerPartition::identity(int num_players) {
  std::vector<int> type_of(static_cast<std::size_t>(num_players));
  for (int i = 0; i < num_players; ++i) {
    type_of[static_cast<std::size_t>(i)] = i;
  }
  return from_type_of(type_of);
}

PlayerPartition PlayerPartition::from_type_of(
    const std::vector<int>& type_of) {
  if (type_of.size() > 64) {
    throw std::invalid_argument("PlayerPartition: at most 64 players");
  }
  PlayerPartition p;
  p.type_of_.resize(type_of.size());
  std::vector<int> relabel;  // original label -> dense type id
  for (std::size_t i = 0; i < type_of.size(); ++i) {
    const int label = type_of[i];
    if (label < 0) {
      throw std::invalid_argument("PlayerPartition: negative type label");
    }
    int dense = -1;
    for (std::size_t t = 0; t < relabel.size(); ++t) {
      if (relabel[t] == label) {
        dense = static_cast<int>(t);
        break;
      }
    }
    if (dense < 0) {
      dense = static_cast<int>(relabel.size());
      relabel.push_back(label);
      p.members_.emplace_back();
    }
    p.type_of_[i] = dense;
    p.members_[static_cast<std::size_t>(dense)].push_back(
        static_cast<int>(i));
  }
  return p;
}

std::uint64_t PlayerPartition::orbit_count() const noexcept {
  std::uint64_t count = 1;
  for (const auto& m : members_) count *= m.size() + 1;
  return count;
}

OrbitIndex::OrbitIndex(PlayerPartition partition)
    : partition_(std::move(partition)) {
  const int T = partition_.num_types();
  type_mask_.assign(static_cast<std::size_t>(T), 0);
  stride_.assign(static_cast<std::size_t>(T), 0);
  binom_.assign(static_cast<std::size_t>(T), {});
  std::uint64_t stride = 1;
  for (int t = 0; t < T; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    for (const int member : partition_.members(t)) {
      type_mask_[ut] |= std::uint64_t{1} << member;
    }
    stride_[ut] = stride;
    const int m = partition_.multiplicity(t);
    stride *= static_cast<std::uint64_t>(m) + 1;
    // Pascal row for C(m, k).
    binom_[ut].assign(static_cast<std::size_t>(m) + 1, 1.0);
    for (int k = 1; k < m; ++k) {
      binom_[ut][static_cast<std::size_t>(k)] =
          binom_[ut][static_cast<std::size_t>(k - 1)] *
          static_cast<double>(m - k + 1) / static_cast<double>(k);
    }
  }
  orbit_count_ = stride;
  // A mixed-radix odometer over the type counts: stepping from o - 1 to
  // o carries into the lowest type t present in o and leaves every digit
  // below it at zero, so level(o) = level(o - stride_t) + 1.
  level_.assign(static_cast<std::size_t>(orbit_count_), 0);
  std::vector<int> digits(static_cast<std::size_t>(T), 0);
  for (std::size_t o = 1; o < level_.size(); ++o) {
    std::size_t t = 0;
    while (digits[t] == partition_.multiplicity(static_cast<int>(t))) {
      digits[t++] = 0;
    }
    ++digits[t];
    level_[o] = level_[o - static_cast<std::size_t>(stride_[t])] + 1;
  }
}

std::uint64_t OrbitIndex::orbit_of(std::uint64_t mask) const noexcept {
  std::uint64_t orbit = 0;
  for (std::size_t t = 0; t < type_mask_.size(); ++t) {
    orbit += static_cast<std::uint64_t>(
                 __builtin_popcountll(mask & type_mask_[t])) *
             stride_[t];
  }
  return orbit;
}

std::vector<int> OrbitIndex::counts(std::uint64_t orbit) const {
  const int T = num_types();
  std::vector<int> c(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    c[ut] = static_cast<int>(
        (orbit / stride_[ut]) %
        (static_cast<std::uint64_t>(partition_.multiplicity(t)) + 1));
  }
  return c;
}

void OrbitIndex::counts_into(std::uint64_t orbit,
                             std::vector<int>& out) const {
  const int T = num_types();
  out.resize(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    out[ut] = static_cast<int>(
        (orbit / stride_[ut]) %
        (static_cast<std::uint64_t>(partition_.multiplicity(t)) + 1));
  }
}

std::uint64_t OrbitIndex::representative(std::uint64_t orbit) const {
  std::uint64_t mask = 0;
  const std::vector<int> c = counts(orbit);
  for (int t = 0; t < num_types(); ++t) {
    const std::vector<int>& mem = partition_.members(t);
    for (int k = 0; k < c[static_cast<std::size_t>(t)]; ++k) {
      mask |= std::uint64_t{1} << mem[static_cast<std::size_t>(k)];
    }
  }
  return mask;
}

std::optional<std::uint64_t> OrbitIndex::successor(std::uint64_t orbit,
                                                   int type) const {
  const auto ut = static_cast<std::size_t>(type);
  const auto radix =
      static_cast<std::uint64_t>(partition_.multiplicity(type)) + 1;
  if ((orbit / stride_[ut]) % radix + 1 >= radix) return std::nullopt;
  return orbit + stride_[ut];
}

std::optional<std::uint64_t> OrbitIndex::predecessor(std::uint64_t orbit,
                                                     int type) const {
  const auto ut = static_cast<std::size_t>(type);
  const auto radix =
      static_cast<std::uint64_t>(partition_.multiplicity(type)) + 1;
  if ((orbit / stride_[ut]) % radix == 0) return std::nullopt;
  return orbit - stride_[ut];
}

double OrbitIndex::choose(int type, int k) const {
  return binom_[static_cast<std::size_t>(type)][static_cast<std::size_t>(k)];
}

PlayerPartition verified_partition(const Game& game,
                                   const PlayerPartition& candidate,
                                   int samples, std::uint64_t seed,
                                   double tolerance) {
  if (candidate.num_players() != game.num_players()) {
    throw std::invalid_argument(
        "verified_partition: partition does not match the game");
  }
  const int n = candidate.num_players();
  std::vector<int> type_of(static_cast<std::size_t>(n));
  int next_label = 0;
  for (int t = 0; t < candidate.num_types(); ++t) {
    const std::vector<int>& mem = candidate.members(t);
    const int kept_label = next_label++;
    type_of[static_cast<std::size_t>(mem[0])] = kept_label;
    for (std::size_t k = 1; k < mem.size(); ++k) {
      // Members that survive a sampled swap against the type's anchor
      // stay; the rest become singleton types. Conservative: two
      // members that both fail against the anchor but match each other
      // are still split.
      if (pair_symmetric(game, mem[0], mem[k], samples, seed, tolerance)) {
        type_of[static_cast<std::size_t>(mem[k])] = kept_label;
      } else {
        type_of[static_cast<std::size_t>(mem[k])] = next_label++;
      }
    }
  }
  return PlayerPartition::from_type_of(type_of);
}

const OrbitIndex& identity_index(int n) {
  if (n < 0) {
    throw std::invalid_argument("identity_index: negative player count");
  }
  limits::require("identity_index", n, limits::kMaxTablePlayers);
  constexpr auto kSizes =
      static_cast<std::size_t>(limits::kMaxTablePlayers.value) + 1;
  static std::array<std::once_flag, kSizes> once;
  static std::array<std::optional<OrbitIndex>, kSizes> cache;
  const auto i = static_cast<std::size_t>(n);
  std::call_once(once[i],
                 [&] { cache[i].emplace(PlayerPartition::identity(n)); });
  return *cache[i];
}

void close_monotone(const OrbitIndex& index, std::vector<double>& values) {
  if (values.size() != index.orbit_count()) {
    throw std::invalid_argument("close_monotone: need one value per orbit");
  }
  if (index.partition().is_trivial()) {
    // Orbits are masks and types are players: a predecessor per set bit,
    // visited from the lowest bit up, as the loop below visits types.
    for (std::uint64_t mask = 1; mask < values.size(); ++mask) {
      double best = values[mask];
      for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
        best = std::max(best, values[mask ^ (rest & (~rest + 1))]);
      }
      values[mask] = best;
    }
    return;
  }
  for (std::uint64_t orbit = 1; orbit < index.orbit_count(); ++orbit) {
    double best = values[static_cast<std::size_t>(orbit)];
    for (int t = 0; t < index.num_types(); ++t) {
      if (const auto pred = index.predecessor(orbit, t)) {
        best = std::max(best, values[static_cast<std::size_t>(*pred)]);
      }
    }
    values[static_cast<std::size_t>(orbit)] = best;
  }
}

TabularGame expand_orbit_table(const OrbitIndex& index,
                               const std::vector<double>& orbit_values) {
  const int n = index.num_players();
  limits::require("expand_orbit_table", n, limits::kMaxTablePlayers);
  if (orbit_values.size() != index.orbit_count()) {
    throw std::invalid_argument(
        "expand_orbit_table: need one value per orbit");
  }
  const std::uint64_t count = std::uint64_t{1} << n;
  std::vector<double> v(count);
  exec::parallel_for(0, count, kExpandChunk,
                     [&](const exec::ChunkRange& r) {
                       for (std::uint64_t mask = r.begin; mask < r.end;
                            ++mask) {
                         v[mask] = orbit_values[index.orbit_of(mask)];
                       }
                       return true;
                     });
  return TabularGame(n, std::move(v));
}

namespace {

// The quotient Shapley formula: for each type t and each orbit c with
// c_t < m_t, the coalitions S without a given type-t player i and with
// counts c number C(m_t - 1, c_t) * prod_{u != t} C(m_u, c_u), and each
// contributes weight(|c|) * (V(c + e_t) - V(c)) to phi_i.
std::vector<double> quotient_marginal_sum(
    const OrbitIndex& index, const std::vector<double>& orbit_values,
    const std::vector<double>& size_weight) {
  const int n = index.num_players();
  const int T = index.num_types();
  if (orbit_values.size() != index.orbit_count()) {
    throw std::invalid_argument(
        "quotient marginal sum: need one value per orbit");
  }
  // C(m_t - 1, k) rows (exact small-integer Pascal arithmetic).
  std::vector<std::vector<double>> minor(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const int m = index.partition().multiplicity(t);
    auto& row = minor[static_cast<std::size_t>(t)];
    row.assign(static_cast<std::size_t>(m), 1.0);
    for (int k = 1; k < m - 1; ++k) {
      row[static_cast<std::size_t>(k)] =
          row[static_cast<std::size_t>(k - 1)] *
          static_cast<double>(m - 1 - k + 1) / static_cast<double>(k);
    }
    if (m >= 2) row[static_cast<std::size_t>(m - 1)] = 1.0;
  }
  std::vector<double> phi_type(static_cast<std::size_t>(T), 0.0);
  for (std::uint64_t orbit = 0; orbit < index.orbit_count(); ++orbit) {
    const std::vector<int> c = index.counts(orbit);
    const int s = index.level(orbit);
    for (int t = 0; t < T; ++t) {
      const int m = index.partition().multiplicity(t);
      const int ct = c[static_cast<std::size_t>(t)];
      if (ct >= m) continue;  // no type-t player left to add
      const auto succ = *index.successor(orbit, t);
      double ways = minor[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(ct)];
      for (int u = 0; u < T; ++u) {
        if (u == t) continue;
        ways *= index.choose(u, c[static_cast<std::size_t>(u)]);
      }
      const double w = size_weight[static_cast<std::size_t>(s)];
      phi_type[static_cast<std::size_t>(t)] +=
          ways * w * (orbit_values[succ] - orbit_values[orbit]);
    }
  }
  std::vector<double> phi(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    phi[static_cast<std::size_t>(i)] =
        phi_type[static_cast<std::size_t>(index.partition().type_of(i))];
  }
  return phi;
}

}  // namespace

std::vector<double> shapley_from_orbit_table(
    const OrbitIndex& index, const std::vector<double>& orbit_values) {
  const int n = index.num_players();
  if (n == 0) return {};
  const std::vector<double> weight = shapley_subset_weights(n);
  return quotient_marginal_sum(index, orbit_values, weight);
}

std::vector<double> expand_type_values(const PlayerPartition& partition,
                                       const std::vector<double>& per_type) {
  if (per_type.size() != static_cast<std::size_t>(partition.num_types())) {
    throw std::invalid_argument(
        "expand_type_values: one entry per type required");
  }
  std::vector<double> out(static_cast<std::size_t>(partition.num_players()));
  for (int i = 0; i < partition.num_players(); ++i) {
    out[static_cast<std::size_t>(i)] =
        per_type[static_cast<std::size_t>(partition.type_of(i))];
  }
  return out;
}

QuotientGame::QuotientGame(const Game& base, PlayerPartition partition)
    : base_(&base),
      index_(std::move(partition)),
      cache_(index_.orbit_count()) {
  if (index_.num_players() != base.num_players()) {
    throw std::invalid_argument(
        "QuotientGame: partition does not match the game");
  }
}

int QuotientGame::num_players() const { return base_->num_players(); }

double QuotientGame::value(Coalition coalition) const {
  const std::uint64_t orbit = index_.orbit_of(coalition.bits());
  return cache_.value_or_compute(orbit, [&] {
    return base_->value(Coalition::from_bits(index_.representative(orbit)));
  });
}

std::optional<double> QuotientGame::value_budgeted(
    Coalition coalition, const runtime::ComputeBudget& budget) const {
  const std::uint64_t orbit = index_.orbit_of(coalition.bits());
  return cache_.value_or_compute_budgeted(orbit, budget, [&] {
    return base_->value(Coalition::from_bits(index_.representative(orbit)));
  });
}

std::vector<double> QuotientGame::orbit_values() const {
  return *orbit_values_budgeted(runtime::ComputeBudget::unlimited());
}

std::optional<std::vector<double>> QuotientGame::orbit_values_budgeted(
    const runtime::ComputeBudget& budget) const {
  std::vector<double> table(static_cast<std::size_t>(index_.orbit_count()));
  const bool ok = exec::parallel_for_budgeted(
      0, index_.orbit_count(), kOrbitChunk, budget,
      [&](const exec::ChunkRange& r, const runtime::ComputeBudget& b) {
        for (std::uint64_t orbit = r.begin; orbit < r.end; ++orbit) {
          const auto value = cache_.value_or_compute_budgeted(orbit, b, [&] {
            return base_->value(
                Coalition::from_bits(index_.representative(orbit)));
          });
          if (!value) return false;
          table[static_cast<std::size_t>(orbit)] = *value;
        }
        return true;
      });
  if (!ok) return std::nullopt;
  return table;
}

std::vector<double> QuotientGame::shapley() const {
  return shapley_from_orbit_table(index_, orbit_values());
}

}  // namespace fedshare::game
