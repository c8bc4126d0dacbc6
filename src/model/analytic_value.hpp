// Analytic (loss-network) coalition values — the closed-form counterpart
// to model/stochastic_value.hpp, following the paper's Sec. 6 pointer to
// Paschalidis & Liu's loss-network pricing.
//
// Each coalition is treated as a reduced-load Erlang system: experiments
// of one class arrive at rate lambda, need `min_locations` distinct
// locations, and hold each for the class's holding time. V(S) is the
// long-run utility rate lambda * (1 - B_S) * u(l), with B_S the fixed-
// point call-blocking probability on S's pool. Heterogeneous per-location
// capacities are approximated by the pool's mean servers per location.
#pragma once

#include "core/game.hpp"
#include "model/location_space.hpp"
#include "sim/loss_network.hpp"
#include "sim/multiplex_sim.hpp"

namespace fedshare::model {

/// Tabulates the analytic loss-network game for a single traffic class.
/// `scaling_per_facility` mirrors ArrivalScaling::kPerFacility: when
/// true, a coalition of k facilities faces k * arrival_rate.
/// Requires <= kMaxFacilities facilities; the class must have
/// min_locations >= 1.
[[nodiscard]] game::TabularGame analytic_game(
    const LocationSpace& space, const sim::TrafficClass& traffic,
    bool scaling_per_facility = false);

}  // namespace fedshare::model
