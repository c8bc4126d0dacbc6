// The net-value game of the paper's Sec. 2.3.2, kept out of the library:
// the numerical analysis ignores provision costs, so no program builds
// it, but tests/test_model.cpp uses it to check the section's claim that
// costs do not change how the value is divided. Costs follow
// model::CostModel: c_i = alpha*L_i + beta*R_i + gamma*T_i, plus c_F
// paid once by a non-empty coalition.
#pragma once

#include <vector>

#include "core/game.hpp"
#include "model/cost.hpp"
#include "model/facility.hpp"

namespace fedshare::model::reference {

/// Provision cost of one facility: alpha*L + beta*R + gamma*T.
[[nodiscard]] double facility_cost(const CostModel& cost,
                                   const Facility& facility);

/// The net-value game: V_net(S) = V(S) - sum of member provision costs
/// - c_F for non-empty S (empty coalition stays 0). The cost terms are
/// additive across players (c_F split aside), so for the Shapley value
/// phi_i(V_net) = phi_i(V) - c_i - c_F/n exactly.
[[nodiscard]] game::TabularGame net_value_game(
    const game::Game& gross, const std::vector<Facility>& facilities,
    const CostModel& cost);

}  // namespace fedshare::model::reference
