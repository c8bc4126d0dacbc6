#include "policy/policy.hpp"

namespace fedshare::policy {

std::vector<double> ShapleyPolicy::shares(
    const model::Federation& federation) const {
  return game::shapley_shares(federation.build_game());
}

std::vector<double> ProportionalAvailabilityPolicy::shares(
    const model::Federation& federation) const {
  return game::proportional_shares(federation.availability_weights());
}

}  // namespace fedshare::policy
