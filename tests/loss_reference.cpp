#include "loss_reference.hpp"

#include <stdexcept>

namespace fedshare::sim::reference {

std::vector<double> kaufman_roberts(int capacity,
                                    const std::vector<KrClass>& classes) {
  if (capacity < 0) {
    throw std::invalid_argument("kaufman_roberts: capacity must be >= 0");
  }
  for (const auto& c : classes) {
    if (c.offered_load < 0.0 || c.circuits_per_call < 1) {
      throw std::invalid_argument(
          "kaufman_roberts: loads >= 0, circuits_per_call >= 1");
    }
  }
  // Unnormalised occupancy distribution q(j), j = 0..capacity:
  // j*q(j) = sum_c a_c * b_c * q(j - b_c).
  std::vector<double> q(static_cast<std::size_t>(capacity) + 1, 0.0);
  q[0] = 1.0;
  for (int j = 1; j <= capacity; ++j) {
    double sum = 0.0;
    for (const auto& c : classes) {
      if (c.circuits_per_call <= j) {
        sum += c.offered_load * c.circuits_per_call *
               q[static_cast<std::size_t>(j - c.circuits_per_call)];
      }
    }
    q[static_cast<std::size_t>(j)] = sum / j;
  }
  double norm = 0.0;
  for (const double x : q) norm += x;

  std::vector<double> blocking(classes.size(), 0.0);
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    const int b = classes[ci].circuits_per_call;
    double tail = 0.0;
    for (int j = capacity - b + 1; j <= capacity; ++j) {
      if (j >= 0) tail += q[static_cast<std::size_t>(j)];
    }
    blocking[ci] = norm > 0.0 ? tail / norm : 1.0;
  }
  return blocking;
}

}  // namespace fedshare::sim::reference
