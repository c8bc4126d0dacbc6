#include "model/cost.hpp"

#include <cmath>
#include <stdexcept>

namespace fedshare::model {

void CostModel::validate() const {
  const double params[] = {alpha, beta, gamma, federation_fixed_cost};
  for (const double p : params) {
    if (!std::isfinite(p) || p < 0.0) {
      throw std::invalid_argument(
          "CostModel: parameters must be finite and >= 0");
    }
  }
}

}  // namespace fedshare::model
