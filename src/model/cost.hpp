// Cost model (the paper's Sec. 2.3.2).
//
// c_i(L_i, R_i, T_i) = alpha*L_i + beta*R_i + gamma*T_i, typically with
// alpha < beta < gamma, plus a fixed per-federation cost c_F covering the
// administrative/technical/legal overhead of federating. The paper's
// numerical analysis ignores provision costs (pre-federation sunk
// investments); the model prices contributed locations in the
// provision game of policy/equilibrium.hpp. The net-value game the
// section argues from lives with its test (tests/cost_reference.hpp).
#pragma once

namespace fedshare::model {

/// Linear provision-cost model plus fixed federation cost.
struct CostModel {
  double alpha = 0.0;  ///< weight on locations L_i
  double beta = 0.0;   ///< weight on per-location units R_i
  double gamma = 0.0;  ///< weight on availability T_i
  double federation_fixed_cost = 0.0;  ///< c_F, paid once by the coalition

  /// Throws std::invalid_argument on negative parameters.
  void validate() const;
};

}  // namespace fedshare::model
