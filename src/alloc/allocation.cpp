#include "alloc/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace fedshare::alloc {

double LocationPool::total_capacity() const noexcept {
  return std::accumulate(capacity.begin(), capacity.end(), 0.0);
}

void LocationPool::validate() const {
  for (const double c : capacity) {
    if (!std::isfinite(c) || c < 0.0) {
      throw std::invalid_argument(
          "LocationPool: capacities must be finite and non-negative");
    }
  }
}

void CapacityHistogram::canonicalize() {
  std::sort(bins.begin(), bins.end(),
            [](const CapacityBin& a, const CapacityBin& b) {
              return a.capacity < b.capacity;
            });
  std::size_t out = 0;
  for (const CapacityBin& b : bins) {
    if (b.count == 0) continue;
    if (out > 0 && bins[out - 1].capacity == b.capacity) {
      bins[out - 1].count += b.count;
    } else {
      bins[out++] = b;
    }
  }
  bins.resize(out);
}

void CapacityHistogram::validate() const {
  for (const CapacityBin& b : bins) {
    if (!std::isfinite(b.capacity) || b.capacity < 0.0) {
      throw std::invalid_argument(
          "CapacityHistogram: capacities must be finite and non-negative");
    }
  }
}

double RequestClass::effective_threshold() const noexcept {
  return std::max(min_locations, 1.0);
}

void RequestClass::validate() const {
  if (!std::isfinite(count) || count < 0.0) {
    throw std::invalid_argument("RequestClass: count must be >= 0");
  }
  if (!std::isfinite(min_locations) || min_locations < 0.0) {
    throw std::invalid_argument("RequestClass: min_locations must be >= 0");
  }
  if (!std::isfinite(units_per_location) || units_per_location <= 0.0) {
    throw std::invalid_argument(
        "RequestClass: units_per_location must be > 0");
  }
  if (!std::isfinite(exponent) || exponent <= 0.0) {
    throw std::invalid_argument("RequestClass: exponent must be > 0");
  }
  if (!std::isfinite(holding_time) || holding_time <= 0.0) {
    throw std::invalid_argument("RequestClass: holding_time must be > 0");
  }
}

}  // namespace fedshare::alloc
