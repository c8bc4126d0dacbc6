// Stochastic coalition values from the discrete-event simulator.
//
// The paper's static model assumes experiments arrive together and are
// allocated once; its future-work section (Sec. 6) points to loss-
// network demand models instead. simulated_game() builds V(S) as the
// long-run utility *rate* each coalition sustains under Poisson arrivals
// with real holding times — statistical multiplexing included — so the
// Shapley machinery can run unchanged on the stochastic game.
#pragma once

#include <vector>

#include "core/game.hpp"
#include "model/location_space.hpp"
#include "sim/multiplex_sim.hpp"

namespace fedshare::model {

/// How demand scales with the coalition being simulated.
enum class ArrivalScaling {
  /// The traffic is one external customer stream: every coalition faces
  /// the same arrival rates (the commercial scenario).
  kExternal,
  /// Each facility brings its own users: a coalition of k facilities
  /// faces k times the per-facility rates (the P2P scenario, where the
  /// multiplexing gain of pooling independent streams shows up).
  kPerFacility,
};

/// Tabulates V(S) = utility rate of the DES run on coalition S's pool.
/// Each coalition uses the same config (and so the same seed — paired
/// randomness reduces the variance of coalition comparisons). The empty
/// coalition is fixed at 0. Requires at most kMaxFacilities
/// (core/limits.hpp) facilities: 2^n simulations.
[[nodiscard]] game::TabularGame simulated_game(
    const LocationSpace& space, const std::vector<sim::TrafficClass>& traffic,
    const sim::SimConfig& config,
    ArrivalScaling scaling = ArrivalScaling::kExternal);

/// Multiplexing gain of the grand coalition: V(N) divided by the sum of
/// singleton values (> 1 means federation beats isolation). Returns 1
/// when no facility generates value alone and the federation doesn't
/// either; +infinity if only the federation does.
[[nodiscard]] double multiplexing_gain(const game::Game& simulated);

}  // namespace fedshare::model
